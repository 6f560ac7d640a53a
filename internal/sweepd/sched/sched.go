package sched

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sweepd"
)

// maxCheckpointFetch bounds how much of a peer's checkpoint tail the
// adopter will buffer. A truncated tail is safe: Manager.Adopt keeps
// only the maximal canonical prefix, and the run recomputes the rest.
const maxCheckpointFetch = 64 << 20

// Cluster is the registry surface the scheduler drives. Implemented by
// *cluster.Registry; tests substitute fakes.
type Cluster interface {
	// Self returns this daemon's advertised URL ("" until known).
	Self() string
	// Members returns the full member table, self included.
	Members() []sweepd.MemberInfo
	// AliveLoads returns the last-probed load of every alive member
	// whose load is known, sorted by URL.
	AliveLoads() []sweepd.MemberLoad
	// UpdateLease records (or refreshes) a job lease, reporting whether it
	// won the generation comparison (if not, someone else leads the job);
	// DropLease removes it if its generation is ≤ gen (the owner finished
	// or released the job); Leases snapshots the table, sorted by job ID.
	UpdateLease(l sweepd.JobLease) bool
	DropLease(jobID string, gen uint64)
	Leases() []sweepd.JobLease
}

// Manager is the job-manager surface the scheduler drives.
// Implemented by *sweepd.Manager.
type Manager interface {
	Submit(sp sweepd.Spec) (sweepd.Job, bool, error)
	Adopt(sp sweepd.Spec, checkpoint []byte) (sweepd.Job, bool, error)
	List() []sweepd.Job
	Load() sweepd.LoadInfo
	// ReplicaCheckpoint returns the raw checkpoint bytes of a locally
	// held replica of the job, or nil when none exists — adoption
	// prefers this over an HTTP tail-fetch from peers.
	ReplicaCheckpoint(id string) []byte
}

// Options configures a Scheduler. Cluster and Manager are required.
type Options struct {
	Cluster Cluster
	Manager Manager

	// AdoptAfter is how long a lease may go unrefreshed after its
	// owner stops answering before a peer adopts the job. Longer
	// values ride out restarts; shorter values resume work faster.
	// Default 30s. It also sets the heartbeat (see heartbeatFor).
	AdoptAfter time.Duration
}

// heartbeatFor is the scheduler tick — lease refresh and adoption scan —
// for an adoption window: a fifteenth of it, capped at 2s. A job's first
// lease goes out up to one tick after the job starts, and a leader that
// dies before then leaves a job no member knows about, so that window
// shrinks with the adoption window: 30s (the default) ticks every 2s, 2s
// every 133ms, 300ms every 20ms.
func heartbeatFor(adoptAfter time.Duration) time.Duration {
	return min(2*time.Second, adoptAfter/15)
}

// Scheduler implements sweepd.Submitter over a cluster: local admission
// on submit, per-job leadership leases while running, and adoption of
// orphaned jobs. See the package comment for the protocol.
type Scheduler struct {
	opts Options
	beat time.Duration // heartbeatFor(opts.AdoptAfter)

	// ctx is the scheduler's lifetime: Close cancels it, which stops the
	// loop and ends the peer calls of a running tick, so Close never
	// waits on a black-holed peer.
	ctx    context.Context
	cancel context.CancelFunc

	// ceded holds the jobs we run but no longer lead, so a lost
	// leadership is counted once; who leads each job is the registry's
	// lease table alone.
	mu    sync.Mutex
	ceded map[string]bool

	started bool
	closed  bool
	done    chan struct{}

	adoptions      atomic.Uint64
	leadershipLost atomic.Uint64
	replicaSeeds   atomic.Uint64
}

// New builds a Scheduler; call Start to begin ticking.
func New(opts Options) (*Scheduler, error) {
	if opts.Cluster == nil || opts.Manager == nil {
		return nil, errors.New("sched: Cluster and Manager are required")
	}
	if opts.AdoptAfter <= 0 {
		opts.AdoptAfter = 30 * time.Second
	}
	s := &Scheduler{
		opts:  opts,
		beat:  heartbeatFor(opts.AdoptAfter),
		ceded: make(map[string]bool),
		done:  make(chan struct{}),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s, nil
}

// Start launches the heartbeat/adoption loop.
func (s *Scheduler) Start() {
	s.mu.Lock()
	if s.started || s.closed {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	tick, stop := sweepd.Time().NewTicker(s.beat) // before Start returns, like the registry's
	go s.loop(tick, stop)
}

// Close stops the loop and waits for the running tick to finish.
// Leases we own stay in the registry; once the daemon stops answering,
// peers see a dead leader and adopt them like any other. A clean
// shutdown does not orphan bookkeeping because finished jobs already
// dropped theirs.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	started := s.started
	s.mu.Unlock()
	s.cancel()
	if started {
		<-s.done
	}
}

func (s *Scheduler) loop(tick <-chan time.Time, stop func()) {
	defer close(s.done)
	defer stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-tick:
			s.tick()
		}
	}
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() sweepd.SchedStats {
	return sweepd.SchedStats{
		Adoptions:      s.adoptions.Load(),
		LeadershipLost: s.leadershipLost.Load(),
		ReplicaSeeds:   s.replicaSeeds.Load(),
	}
}

// SubmitSweep implements sweepd.Submitter: the member a sweep is
// submitted to leads it, and sharding spreads its cells.
func (s *Scheduler) SubmitSweep(_ context.Context, sp sweepd.Spec) (sweepd.Job, bool, error) {
	return s.opts.Manager.Submit(sp)
}

// tick is one scheduler round: refresh leases for jobs we lead, then
// scan for orphans to adopt. Exercised directly by tests.
func (s *Scheduler) tick() {
	self := s.opts.Cluster.Self()
	if self == "" {
		return // not announced yet
	}
	s.heartbeat(self)
	s.adoptPass(self)
}

// heartbeat reads leadership off one snapshot of the registry's lease
// table: a running job with no lease is ours at generation 1, one whose
// lease names us keeps its generation, and one whose lease names a peer
// (or whose refresh a newer peer lease rejects) is ceded — its local run
// still finishes; determinism makes the duplicate compute harmless. Our
// leases of jobs that stopped running are dropped.
func (s *Scheduler) heartbeat(self string) {
	jobs := s.opts.Manager.List()
	table := make(map[string]sweepd.JobLease)
	for _, l := range s.opts.Cluster.Leases() {
		table[l.JobID] = l
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	live := make(map[string]bool, len(jobs))
	for _, job := range jobs {
		if job.Status != sweepd.StatusRunning {
			continue
		}
		live[job.ID] = true
		if s.ceded[job.ID] {
			continue
		}
		gen := uint64(1)
		if l, ok := table[job.ID]; ok {
			if l.Owner != self {
				s.ceded[job.ID] = true
				s.leadershipLost.Add(1)
				slog.Info("sched: job led elsewhere; running as non-leader", "job", job.ID, "owner", l.Owner, "generation", l.Generation)
				continue
			}
			gen = l.Generation
		}
		if !s.opts.Cluster.UpdateLease(sweepd.JobLease{
			JobID:      job.ID,
			Spec:       job.Spec,
			Owner:      self,
			Generation: gen,
			Completed:  job.Completed,
			Total:      job.Total,
		}) {
			s.ceded[job.ID] = true
			s.leadershipLost.Add(1)
			slog.Warn("sched: leadership lost to a newer generation; running as non-leader", "job", job.ID, "generation", gen)
		}
	}

	for id, l := range table {
		if l.Owner == self && !live[id] {
			s.opts.Cluster.DropLease(id, l.Generation)
		}
	}
	for id := range s.ceded {
		if !live[id] {
			delete(s.ceded, id)
		}
	}
}

// adoptPass scans the lease table for jobs whose owner is gone and
// whose lease has gone stale, and adopts them if this member wins the
// deterministic election.
func (s *Scheduler) adoptPass(self string) {
	leases := s.opts.Cluster.Leases()
	if len(leases) == 0 {
		return
	}
	state := make(map[string]string)
	for _, m := range s.opts.Cluster.Members() {
		if !m.Self {
			state[m.URL] = m.State
		}
	}
	elected := false
	var winner string
	for _, l := range leases {
		if l.Owner == self {
			continue
		}
		// Only orphans: the owner must look dead from here (down, or
		// tombstoned out of the table entirely).
		if st, known := state[l.Owner]; known && st != "down" {
			continue
		}
		// Updated is the registry's stamp on the daemon's clock.
		if sweepd.Time().Now().Sub(l.Updated) < s.opts.AdoptAfter {
			continue
		}
		if !elected {
			winner = s.electAdopter(self)
			elected = true
		}
		if winner != self {
			continue // the less-loaded member will take it
		}
		s.adoptJob(self, l)
	}
}

// electAdopter picks the least-loaded alive member, self included,
// breaking load ties on the smaller URL. Every member evaluates the
// same gossip-sourced loads, so elections agree almost always; when
// they briefly don't, the lease generation guard settles it.
func (s *Scheduler) electAdopter(self string) string {
	best, bestLoad := self, s.opts.Manager.Load()
	for _, ml := range s.opts.Cluster.AliveLoads() {
		if ml.URL == self {
			continue
		}
		if ml.Load.Less(bestLoad) || (!bestLoad.Less(ml.Load) && ml.URL < best) {
			best, bestLoad = ml.URL, ml.Load
		}
	}
	return best
}

// adoptJob takes over an orphaned job: recover the checkpoint — from
// this daemon's own replica of the job when one exists (verified on
// receipt, no network needed, and present even when the dead leader
// held the only live copy), else whatever tail an alive peer still
// holds — seed it locally, resume the sweep, and publish the
// generation+1 lease. The lease came from a peer and its JobID is about
// to name a replica directory, a URL path and the lease published here: one
// that is not its spec's content address (16 hex digits) is skipped.
func (s *Scheduler) adoptJob(self string, l sweepd.JobLease) {
	sp := l.Spec
	sp.Normalize()
	if sp.ID() != l.JobID {
		slog.Warn("sched: skipping a lease whose job id is not its spec's", "job", l.JobID, "owner", l.Owner, "spec_id", sp.ID())
		return
	}
	checkpoint := s.opts.Manager.ReplicaCheckpoint(l.JobID)
	if checkpoint != nil {
		s.replicaSeeds.Add(1)
		slog.Info("sched: seeding adoption from the local replica", "job", l.JobID, "bytes", len(checkpoint))
	} else {
		checkpoint = s.fetchCheckpoint(l.JobID)
	}
	job, _, err := s.opts.Manager.Adopt(l.Spec, checkpoint)
	if err != nil {
		slog.Warn("sched: adoption failed", "job", l.JobID, "owner", l.Owner, "err", err)
		return
	}
	newGen := l.Generation + 1
	s.mu.Lock()
	delete(s.ceded, l.JobID)
	s.mu.Unlock()
	if !s.opts.Cluster.UpdateLease(sweepd.JobLease{
		JobID:      l.JobID,
		Spec:       l.Spec,
		Owner:      self,
		Generation: newGen,
		Completed:  job.Completed,
		Total:      job.Total,
	}) {
		// A racing adopter claimed a newer (or tie-winning) lease
		// between our scan and now. Keep computing, stop leading.
		s.mu.Lock()
		s.ceded[l.JobID] = true
		s.mu.Unlock()
		s.leadershipLost.Add(1)
		slog.Info("sched: adoption race lost; running as non-leader", "job", l.JobID, "generation", newGen)
		return
	}
	s.adoptions.Add(1)
	slog.Info("sched: adopted job", "job", l.JobID, "owner", self, "generation", newGen, "was", l.Owner,
		"completed", job.Completed, "total", job.Total)
}

// fetchCheckpoint asks each alive peer for the orphan's results file
// and returns the first non-empty body. Usually every peer 404s — the
// dead leader held the only copy — and the adopter recomputes from its
// cell cache instead.
func (s *Scheduler) fetchCheckpoint(jobID string) []byte {
	for _, m := range s.opts.Cluster.Members() {
		if m.Self || m.State != "alive" {
			continue
		}
		ctx, cancel := context.WithTimeout(s.ctx, sweepd.PeerCallTimeout)
		var b []byte
		resp, err := sweepd.Peer.Do(ctx, http.MethodGet, m.URL+"/sweeps/"+jobID+"/results", "", nil, 0, nil)
		if err == nil {
			b, err = io.ReadAll(io.LimitReader(resp.Body, maxCheckpointFetch))
			resp.Body.Close()
		}
		cancel()
		if err == nil && len(b) > 0 {
			slog.Info("sched: recovered checkpoint bytes", "job", jobID, "member", m.URL, "bytes", len(b))
			return b
		}
	}
	return nil
}
