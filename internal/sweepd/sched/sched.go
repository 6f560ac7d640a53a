package sched

import (
	"context"
	"errors"
	"io"
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
	// ReportLeaseFailure says a peer failed a forward, so the next probe
	// cycle rechecks it sooner (shared with the shard backend).
	ReportLeaseFailure(url string)
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
	// Default 30s.
	AdoptAfter time.Duration

	// Heartbeat is the scheduler tick: lease refresh and adoption
	// scan. Must be well under AdoptAfter. Default 2s.
	Heartbeat time.Duration

	// Logf receives scheduler events. Defaults to log.Printf-shaped
	// no-op when nil.
	Logf func(format string, args ...any)
}

// Scheduler implements sweepd.Submitter over a cluster: capacity-aware
// placement on submit, per-job leadership leases while running, and
// adoption of orphaned jobs. See the package comment for the protocol.
type Scheduler struct {
	opts Options
	logf func(string, ...any)
	now  func() time.Time // injected in tests

	// ctx is the scheduler's lifetime: Close cancels it, which stops the
	// loop and ends the peer calls of a running tick, so Close never
	// waits on a black-holed peer.
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	gens  map[string]uint64 // job id -> generation we lead at
	ceded map[string]bool   // jobs we run but no longer lead

	started bool
	closed  bool
	done    chan struct{}

	forwards        atomic.Uint64
	forwardFailures atomic.Uint64
	adoptions       atomic.Uint64
	leadershipLost  atomic.Uint64
	replicaSeeds    atomic.Uint64
}

// New builds a Scheduler; call Start to begin ticking.
func New(opts Options) (*Scheduler, error) {
	if opts.Cluster == nil || opts.Manager == nil {
		return nil, errors.New("sched: Cluster and Manager are required")
	}
	if opts.AdoptAfter <= 0 {
		opts.AdoptAfter = 30 * time.Second
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = 2 * time.Second
	}
	s := &Scheduler{
		opts:  opts,
		logf:  opts.Logf,
		now:   time.Now,
		gens:  make(map[string]uint64),
		ceded: make(map[string]bool),
		done:  make(chan struct{}),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
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
	go s.loop()
}

// Close stops the loop and waits for the running tick to finish.
// Leases we own stay in the registry and expire (or get adopted) like
// any dead leader's; a clean shutdown does not orphan bookkeeping
// because finished jobs already dropped theirs.
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

func (s *Scheduler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			s.tick()
		}
	}
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() sweepd.SchedStats {
	return sweepd.SchedStats{
		Forwards:        s.forwards.Load(),
		ForwardFailures: s.forwardFailures.Load(),
		Adoptions:       s.adoptions.Load(),
		LeadershipLost:  s.leadershipLost.Load(),
		ReplicaSeeds:    s.replicaSeeds.Load(),
	}
}

// SubmitSweep implements sweepd.Submitter: admit locally when we are
// the least-loaded member, otherwise forward to the member that is.
func (s *Scheduler) SubmitSweep(ctx context.Context, sp sweepd.Spec) (sweepd.PlacedJob, error) {
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		return sweepd.PlacedJob{}, err
	}
	target := s.pickTarget()
	if target == "" {
		job, created, err := s.opts.Manager.Submit(sp)
		return sweepd.PlacedJob{Job: job, Created: created}, err
	}
	job, created, err := s.forward(ctx, target, sp)
	if err == nil {
		s.forwards.Add(1)
		return sweepd.PlacedJob{Job: job, Created: created, PlacedOn: target}, nil
	}
	s.forwardFailures.Add(1)
	s.logf("sched: forward to %s failed: %v; admitting locally", target, err)
	s.opts.Cluster.ReportLeaseFailure(target)
	job, created, lerr := s.opts.Manager.Submit(sp)
	if errors.Is(lerr, sweepd.ErrJobQuota) {
		// Full here too: hand the client the member we picked so it
		// can retry there directly (307 + Location at the HTTP layer).
		return sweepd.PlacedJob{}, &sweepd.RedirectError{URL: target}
	}
	return sweepd.PlacedJob{Job: job, Created: created}, lerr
}

// pickTarget returns the URL of an alive peer whose load is strictly
// below ours, or "" to run locally. Ties keep the job local: moving a
// job is only worth it when the peer is actually less loaded, and the
// strict comparison keeps an idle cluster from ping-ponging specs.
func (s *Scheduler) pickTarget() string {
	peers := s.opts.Cluster.AliveLoads()
	if len(peers) == 0 {
		return ""
	}
	self := s.opts.Cluster.Self()
	target, best := "", s.opts.Manager.Load()
	for _, ml := range peers {
		if ml.URL == self {
			continue
		}
		if ml.Load.Less(best) {
			target, best = ml.URL, ml.Load
		}
	}
	return target
}

// forwardBudget caps the cumulative Retry-After wait spent re-trying a
// 429 from the forward target before giving up on it.
const forwardBudget = 5 * time.Second

// forward POSTs the spec to target's /peer/jobs, waiting out 429s per
// their Retry-After up to forwardBudget.
func (s *Scheduler) forward(ctx context.Context, target string, sp sweepd.Spec) (sweepd.Job, bool, error) {
	ctx, cancel := context.WithTimeout(ctx, sweepd.PeerCallTimeout)
	defer cancel()
	var job sweepd.Job
	status, err := sweepd.Peer.JSON(ctx, http.MethodPost, target+"/peer/jobs", sp, &job, 1<<20, forwardBudget)
	return job, status == http.StatusAccepted, err
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

// heartbeat writes a lease for every locally running job we lead and
// drops leases for jobs that finished. A rejected update means a peer
// holds a newer generation: we cede leadership but let the local run
// finish — determinism makes the duplicate compute harmless.
func (s *Scheduler) heartbeat(self string) {
	jobs := s.opts.Manager.List()
	s.mu.Lock()
	defer s.mu.Unlock()

	var table map[string]sweepd.JobLease // lazy; only newly seen jobs need it
	leaseFor := func(id string) (sweepd.JobLease, bool) {
		if table == nil {
			table = make(map[string]sweepd.JobLease)
			for _, l := range s.opts.Cluster.Leases() {
				table[l.JobID] = l
			}
		}
		l, ok := table[id]
		return l, ok
	}

	live := make(map[string]bool, len(jobs))
	for _, job := range jobs {
		if job.Status != sweepd.StatusRunning {
			continue
		}
		live[job.ID] = true
		if s.ceded[job.ID] {
			continue
		}
		gen, tracked := s.gens[job.ID]
		if !tracked {
			gen = 1
			// A job can predate us (daemon restart resumed it, or the
			// registry gossiped a lease before our first tick). Inherit
			// our own lease's generation; cede to anyone else's.
			if l, ok := leaseFor(job.ID); ok {
				if l.Owner == self {
					gen = l.Generation
				} else {
					s.ceded[job.ID] = true
					s.leadershipLost.Add(1)
					s.logf("sched: job %s led by %s at generation %d; running as non-leader", job.ID, l.Owner, l.Generation)
					continue
				}
			}
			s.gens[job.ID] = gen
		}
		ok := s.opts.Cluster.UpdateLease(sweepd.JobLease{
			JobID:      job.ID,
			Spec:       job.Spec,
			Owner:      self,
			Generation: gen,
			Completed:  job.Completed,
			Total:      job.Total,
		})
		if !ok {
			s.ceded[job.ID] = true
			s.leadershipLost.Add(1)
			s.logf("sched: job %s leadership lost to a newer generation; running as non-leader", job.ID)
		}
	}

	for id, gen := range s.gens {
		if live[id] {
			continue
		}
		if !s.ceded[id] {
			s.opts.Cluster.DropLease(id, gen)
		}
		delete(s.gens, id)
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
	now := s.now()
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
		if now.Sub(l.Updated) < s.opts.AdoptAfter {
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
		s.logf("sched: skipping lease from %s: job id %q is not its spec's (%s)", l.Owner, l.JobID, sp.ID())
		return
	}
	checkpoint := s.opts.Manager.ReplicaCheckpoint(l.JobID)
	if checkpoint != nil {
		s.replicaSeeds.Add(1)
		s.logf("sched: seeding adoption of job %s from local replica (%d bytes)", l.JobID, len(checkpoint))
	} else {
		checkpoint = s.fetchCheckpoint(l.JobID)
	}
	job, _, err := s.opts.Manager.Adopt(l.Spec, checkpoint)
	if err != nil {
		s.logf("sched: adopting job %s from %s failed: %v", l.JobID, l.Owner, err)
		return
	}
	newGen := l.Generation + 1
	s.mu.Lock()
	s.gens[l.JobID] = newGen
	delete(s.ceded, l.JobID)
	s.mu.Unlock()
	lease := sweepd.JobLease{
		JobID:      l.JobID,
		Spec:       l.Spec,
		Owner:      self,
		Generation: newGen,
		Completed:  job.Completed,
		Total:      job.Total,
	}
	if !s.opts.Cluster.UpdateLease(lease) {
		// A racing adopter claimed a newer (or tie-winning) lease
		// between our scan and now. Keep computing, stop leading.
		s.mu.Lock()
		s.ceded[l.JobID] = true
		s.mu.Unlock()
		s.leadershipLost.Add(1)
		s.logf("sched: adoption race on job %s lost; running as non-leader", l.JobID)
		return
	}
	s.adoptions.Add(1)
	s.logf("sched: adopted job %s from %s at generation %d (%d/%d cells checkpointed)",
		l.JobID, l.Owner, newGen, job.Completed, job.Total)
	s.broadcastClaim(lease)
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
			s.logf("sched: recovered %d checkpoint bytes for job %s from %s", len(b), jobID, m.URL)
			return b
		}
	}
	return nil
}

// broadcastClaim pushes an adopted lease to every alive peer so the
// cluster converges before the next gossip cycle (and so a racing
// adopter cedes immediately). Best effort: gossip is the backstop.
func (s *Scheduler) broadcastClaim(l sweepd.JobLease) {
	for _, m := range s.opts.Cluster.Members() {
		if m.Self || m.State != "alive" {
			continue
		}
		ctx, cancel := context.WithTimeout(s.ctx, sweepd.PeerCallTimeout)
		sweepd.Peer.JSON(ctx, http.MethodPost, m.URL+"/peer/jobs/claim", l, nil, 0, 0) //nolint:errcheck // best effort
		cancel()
	}
}
