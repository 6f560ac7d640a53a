package sweepd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
	"repro/internal/sweepd/store"
)

// Error classes the HTTP layer maps to status codes: a store failure is
// the server's fault (500), a quota rejection is load shedding (429) —
// neither is a bad request.
var (
	// ErrStore marks durable-store failures (disk full, permissions).
	ErrStore = errors.New("sweepd: store failure")
	// ErrJobQuota marks admissions rejected by the -max-jobs cap.
	ErrJobQuota = errors.New("sweepd: job quota exceeded")
	// ErrJobRunning marks an eviction attempt on a non-terminal job.
	ErrJobRunning = errors.New("sweepd: job is running; cancel it before purging")
)

// JobStatus is the lifecycle state of a sweep job.
type JobStatus string

const (
	// StatusRunning: the worker pool is executing (or resuming) the grid.
	StatusRunning JobStatus = "running"
	// StatusDone: every cell is checkpointed; results are complete.
	StatusDone JobStatus = "done"
	// StatusCanceled: stopped by request or daemon shutdown. The
	// checkpoint keeps its clean prefix; resubmitting the same spec (or
	// restarting the daemon) resumes from it.
	StatusCanceled JobStatus = "canceled"
	// StatusFailed: an I/O error interrupted checkpointing.
	StatusFailed JobStatus = "failed"
)

// Job is a point-in-time snapshot of one sweep job.
type Job struct {
	ID        string    `json:"id"`
	Spec      Spec      `json:"spec"`
	Status    JobStatus `json:"status"`
	Total     int       `json:"total_cells"`
	Completed int       `json:"completed_cells"`
	CacheHits int       `json:"cache_hits"`
	// RemoteCells counts cells of this job whose results were computed by
	// peer daemons (always 0 without a sharding executor).
	RemoteCells int    `json:"remote_cells,omitempty"`
	Error       string `json:"error,omitempty"`
	// Created is when the job was first admitted; Finished is when it
	// last reached a terminal status (zero while running). Both persist
	// in the store's meta.json, so TTL GC survives restarts.
	Created  time.Time `json:"created,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// Replica marks a snapshot served from this daemon's replica of a
	// finished job it never ran (read fan-out), not from the manager's
	// own job table.
	Replica bool `json:"replica,omitempty"`
}

type jobState struct {
	job    Job
	cancel context.CancelFunc
	// canceling is set (under Manager.mu) the moment Cancel is called;
	// the runner only observes the cancellation at its next check, so
	// this flag lets a concurrent resubmit know the job is on its way
	// down and must be restarted rather than returned as "running".
	canceling bool
	// done is closed when the runner goroutine has fully exited (runJob
	// returned and the checkpoint file is closed), gating safe restarts.
	done chan struct{}
	// evicting is set (under Manager.mu) while Evict deletes the job's
	// files; it blocks restarts so no runner starts inside a directory
	// that is being removed.
	evicting bool
	// hist accumulates the wall time of this job's locally computed cells
	// (under Manager.mu); nil for spec-load-failed placeholders.
	hist *latencyHist
}

// restartable reports whether the job is terminal (or about to be) and
// may be re-admitted. Caller holds Manager.mu.
func (js *jobState) restartable() bool {
	return (js.job.Status == StatusCanceled || js.job.Status == StatusFailed || js.canceling) &&
		!js.evicting
}

// Manager owns the sweep jobs: it admits specs, runs each job's grid on a
// context-aware worker pool, streams results into the store's checkpoint
// files, consults the shared result cache, and resumes unfinished jobs
// after a restart.
type Manager struct {
	store   *Store
	cache   *Cache
	workers int
	// replicas, when set, is this daemon's local copies of other members'
	// finished jobs; nil outside clusters with replication enabled.
	replicas *store.ReplicaSet
	// gate is the daemon-wide worker-token bucket: every job's pool draws
	// from it, so total CPU-bound concurrency stays at `workers` no matter
	// how many jobs run (or resume) at once.
	gate chan struct{}

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// gcWG tracks the background GC goroutine separately from job
	// runners, so Manager.Wait (jobs drained) keeps its meaning.
	gcWG sync.WaitGroup

	started time.Time
	// now is the manager's clock; tests inject a fake to drive TTL GC
	// deterministically. Set before any job is admitted.
	now func() time.Time

	mu   sync.Mutex
	jobs map[string]*jobState
	// maxJobs caps retained jobs (every status counts); 0 = unlimited.
	maxJobs int
	// evictHooks run (outside mu) after each eviction; the HTTP layer
	// registers one to drop its per-job summary state.
	evictHooks []func(id string)
	// finishHooks run (outside mu) each time a job reaches a terminal
	// status; the replicator registers one to push finished checkpoints.
	finishHooks []func(job Job)
	// cellsAppended counts checkpoint lines written since this manager
	// started (computed or cache-served; resume-skipped cells excluded),
	// feeding the /metrics throughput gauges.
	cellsAppended uint64
	// jobsEvicted / spillBytesReclaimed count GC (and explicit purge)
	// work since the manager started.
	jobsEvicted         uint64
	spillBytesReclaimed uint64
	// remoteCells counts cells computed by peer daemons across all jobs
	// since this manager started.
	remoteCells uint64
	// execProvider, when set, supplies per-job compute backends (the
	// peer-sharding layer); nil means every job runs on the local pool.
	execProvider ExecutorProvider
}

// NewManager wires a manager over a store and a (possibly nil) cache.
// workers ≤ 0 means GOMAXPROCS; the bound applies across all jobs
// combined, not per job.
func NewManager(store *Store, cache *Cache, workers int) *Manager {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	gate := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		gate <- struct{}{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		store:   store,
		cache:   cache,
		workers: workers,
		gate:    gate,
		ctx:     ctx,
		cancel:  cancel,
		started: time.Now(),
		now:     time.Now,
		jobs:    make(map[string]*jobState),
	}
}

// SetMaxJobs caps the number of retained jobs (0 = unlimited). Beyond
// the cap, Submit of a new spec fails with ErrJobQuota; resubmits of
// retained jobs and restart-time Resume are exempt. Call before serving
// traffic.
func (m *Manager) SetMaxJobs(n int) {
	m.mu.Lock()
	m.maxJobs = n
	m.mu.Unlock()
}

// SetExecutorProvider installs the per-job compute-backend factory (the
// peer-sharding layer from internal/sweepd/shard). Call before serving
// traffic. Determinism is unaffected: per-cell seeding makes results
// byte-identical no matter which backend computes each cell.
func (m *Manager) SetExecutorProvider(p ExecutorProvider) {
	m.mu.Lock()
	m.execProvider = p
	m.mu.Unlock()
}

// OnEvict registers fn to run after each job eviction (TTL GC or
// explicit purge), outside the manager lock. Used by the HTTP layer to
// release per-job serving state.
func (m *Manager) OnEvict(fn func(id string)) {
	m.mu.Lock()
	m.evictHooks = append(m.evictHooks, fn)
	m.mu.Unlock()
}

// OnFinish registers fn to run (outside the manager lock, with a
// snapshot of the job) each time a job reaches a terminal status —
// including terminal jobs re-registered by Resume, so replication
// deficits heal across restarts. Used by the replicator to push
// finished checkpoints to peers. Call before Resume.
func (m *Manager) OnFinish(fn func(job Job)) {
	m.mu.Lock()
	m.finishHooks = append(m.finishHooks, fn)
	m.mu.Unlock()
}

// SetReplicas installs this daemon's replica store (local copies of
// other members' finished jobs). Call before serving traffic; nil (the
// default) disables replica-served reads and replica-seeded adoption.
func (m *Manager) SetReplicas(rs *store.ReplicaSet) {
	m.mu.Lock()
	m.replicas = rs
	m.mu.Unlock()
}

// Replicas returns the daemon's replica store (nil when replication is
// disabled).
func (m *Manager) Replicas() *store.ReplicaSet {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replicas
}

// ReplicaCheckpoint returns the raw checkpoint bytes of a locally held
// replica of the job, or nil when no replica (or no replica store)
// exists. The scheduler's adoption path prefers this over refetching
// the checkpoint tail from peers over HTTP — a dead leader's job seeds
// from the local copy.
func (m *Manager) ReplicaCheckpoint(id string) []byte {
	rs := m.Replicas()
	if rs == nil {
		return nil
	}
	man, err := rs.Manifest(id)
	if err != nil || man.JobID != id {
		return nil
	}
	data, err := os.ReadFile(rs.ResultsPath(id))
	if err != nil {
		return nil
	}
	return data
}

// fireFinishHooks runs the registered finish hooks (outside mu) with a
// snapshot of the job.
func (m *Manager) fireFinishHooks(job Job) {
	m.mu.Lock()
	hooks := slices.Clone(m.finishHooks)
	m.mu.Unlock()
	for _, fn := range hooks {
		fn(job)
	}
}

// Resume scans the store and restarts every job whose checkpoint is
// incomplete; complete jobs are registered as done. A job whose on-disk
// spec is unreadable or invalid is registered as failed rather than
// taking the daemon down — one bad job directory must never block the
// rest from resuming. Call once after NewManager, before serving traffic.
func (m *Manager) Resume() error {
	ids, err := m.store.Jobs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		sp, err := m.store.LoadSpec(id)
		if err == nil {
			if verr := sp.Validate(); verr != nil {
				err = fmt.Errorf("invalid spec %s: %w", m.store.SpecPath(id), verr)
			}
		}
		if err != nil {
			// Register a terminal placeholder whose Error names the spec
			// bytes on disk and why they failed to parse — GET /sweeps/{id}
			// must never report a silent zero spec — and backdate its
			// timestamps so TTL GC reaps the husk like any failed job.
			created := time.Time{}
			if meta, merr := m.store.LoadMeta(id); merr == nil {
				created = meta.Created
			}
			if created.IsZero() {
				if fi, serr := os.Stat(m.store.SpecPath(id)); serr == nil {
					created = fi.ModTime()
				} else {
					created = m.now()
				}
			}
			done := make(chan struct{})
			close(done)
			m.mu.Lock()
			m.jobs[id] = &jobState{
				job: Job{
					ID:       id,
					Status:   StatusFailed,
					Error:    err.Error(),
					Created:  created,
					Finished: created,
				},
				cancel: func() {},
				done:   done,
			}
			m.mu.Unlock()
			continue
		}
		m.admit(sp, false)
	}
	return nil
}

// Submit admits a job for the normalized, validated spec. Identical specs
// collapse onto one job: resubmitting returns the existing job (possibly
// already done) with created=false. Errors carry their class: spec
// problems are plain validation errors, store I/O failures wrap
// ErrStore, and admissions beyond the -max-jobs cap wrap ErrJobQuota.
func (m *Manager) Submit(sp Spec) (Job, bool, error) {
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		return Job{}, false, err
	}
	_, createdOnDisk, err := m.store.CreateJob(sp)
	if err != nil {
		return Job{}, false, fmt.Errorf("%w: %w", ErrStore, err)
	}
	job, created, err := m.admit(sp, true)
	if err != nil && createdOnDisk {
		// The quota rejected a spec we just persisted; remove the dir so
		// the dead job does not resurrect on the next restart's Resume —
		// unless a concurrent identical Submit won a freed slot in the
		// meantime, in which case the dir now belongs to its running job.
		// (Holding mu serializes with admit's registration; the residual
		// CreateJob-vs-delete window only fails that one attempt, and
		// retrying is safe.)
		m.mu.Lock()
		if _, registered := m.jobs[sp.ID()]; !registered {
			m.store.DeleteJob(sp.ID()) //nolint:errcheck // best-effort rollback
		}
		m.mu.Unlock()
	}
	return job, created, err
}

// Adopt admits a job this daemon is claiming from a dead leader: the
// spec comes from the job's gossiped lease, and checkpoint (may be nil)
// is the dead leader's checkpoint tail as fetched from whichever member
// still had bytes — its maximal canonical prefix seeds the local
// checkpoint before the runner starts, so adoption resumes rather than
// recomputes wherever bytes survived. Adoption is quota-exempt: an
// orphaned job must land somewhere, and the adopter was chosen as the
// least-loaded member. Determinism makes the rest safe: whatever prefix
// is imported, the finished checkpoint is byte-identical to an
// uninterrupted run's.
func (m *Manager) Adopt(sp Spec, checkpoint []byte) (Job, bool, error) {
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		return Job{}, false, err
	}
	if _, _, err := m.store.CreateJob(sp); err != nil {
		return Job{}, false, fmt.Errorf("%w: %w", ErrStore, err)
	}
	if len(checkpoint) > 0 {
		// Seeding happens under mu: admit also registers under mu before
		// spawning a runner, so no runner can have the checkpoint open
		// while it is being replaced.
		m.mu.Lock()
		if _, registered := m.jobs[sp.ID()]; !registered {
			m.seedCheckpoint(sp, checkpoint)
		}
		m.mu.Unlock()
	}
	return m.admit(sp, false)
}

// seedCheckpoint writes the maximal canonical prefix of raw (a fetched
// checkpoint tail) as the job's local checkpoint. Each line must decode
// and match the spec's canonical cell at its index; the first torn,
// alien, or out-of-order line ends the import — the runner recomputes
// from there. An existing non-empty local checkpoint wins outright (it
// is already a trusted canonical prefix). Caller holds m.mu and has
// verified no runner is registered for the job. Best-effort: any
// failure just means adoption starts from less.
func (m *Manager) seedCheckpoint(sp Spec, raw []byte) {
	path := m.store.ResultsPath(sp.ID())
	if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
		return
	}
	keep, idx := 0, 0
	for off := 0; off < len(raw); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break
		}
		line := bytes.TrimSpace(raw[off : off+nl])
		off += nl + 1
		if len(line) == 0 {
			break
		}
		rec, err := ncgio.UnmarshalCellResult(line)
		if err != nil || idx >= sp.NumCells() || rec.Cell != sp.CellsRange(idx, idx+1)[0] {
			break
		}
		idx++
		keep = off
	}
	if keep == 0 {
		return
	}
	tmp := path + ".adopt"
	if err := os.WriteFile(tmp, raw[:keep], 0o644); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
	}
}

// Load snapshots this daemon's capacity for placement decisions and the
// /healthz load section — the same numbers ManagerStats reports, minus
// the O(n) walk over terminal jobs' statuses.
func (m *Manager) Load() LoadInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	running := 0
	for _, js := range m.jobs {
		if js.job.Status == StatusRunning {
			running++
		}
	}
	return LoadInfo{
		QueueDepth:  running,
		BusyWorkers: m.workers - len(m.gate),
		RunningJobs: running,
	}
}

// admit registers the job and starts its runner. A job that is running
// or done is returned as-is; a canceled or failed job is restarted from
// its checkpoint (after its previous runner has fully drained, so two
// runners never share a checkpoint file). enforceQuota applies the
// -max-jobs cap to brand-new registrations only: resubmits and
// restart-time Resume always land.
func (m *Manager) admit(sp Spec, enforceQuota bool) (Job, bool, error) {
	id := sp.ID()
	// Fast path: the common idempotent resubmit of a running or done job
	// returns its snapshot without touching the disk at all.
	m.mu.Lock()
	if js, ok := m.jobs[id]; ok && !js.restartable() {
		job := js.job
		m.mu.Unlock()
		return job, false, nil
	}
	m.mu.Unlock()

	// Slow path — a runner will (re)start. Load (or initialize) the
	// persistent lifecycle record before retaking the lock; a missing or
	// corrupt meta falls back to "created now".
	meta, merr := m.store.LoadMeta(id)
	writeMeta := false
	if merr != nil || meta.Created.IsZero() {
		meta = store.Meta{Created: m.now()}
		writeMeta = true
	}
	if !meta.Finished.IsZero() {
		// Restarting a terminal job clears its terminal stamp; when the
		// runner re-finishes (instantly, for an already-complete
		// checkpoint resumed at boot) a fresh one lands. The TTL clock
		// therefore restarts across daemon restarts — GC may delete
		// late, never early.
		meta.Finished = time.Time{}
		writeMeta = true
	}

	m.mu.Lock()
	if js, ok := m.jobs[id]; ok {
		if !js.restartable() {
			job := js.job
			m.mu.Unlock()
			return job, false, nil
		}
		m.mu.Unlock()
		<-js.done // old runner exits promptly once canceled
		m.mu.Lock()
		if cur := m.jobs[id]; cur != nil && cur != js {
			// Someone else restarted it while we waited.
			job := cur.job
			m.mu.Unlock()
			return job, false, nil
		}
		// cur == nil means the job was evicted while we waited; fall
		// through and re-admit it as new.
	} else if enforceQuota && m.maxJobs > 0 && len(m.jobs) >= m.maxJobs {
		n := len(m.jobs)
		m.mu.Unlock()
		return Job{}, false, fmt.Errorf("%w: %d jobs retained (max %d); purge jobs or wait for GC",
			ErrJobQuota, n, m.maxJobs)
	}
	ctx, cancel := context.WithCancel(m.ctx)
	js := &jobState{
		job: Job{
			ID:      id,
			Spec:    sp,
			Status:  StatusRunning,
			Total:   sp.NumCells(),
			Created: meta.Created,
		},
		cancel: cancel,
		done:   make(chan struct{}),
		hist:   &latencyHist{},
	}
	created := m.jobs[id] == nil
	m.jobs[id] = js
	job := js.job
	m.mu.Unlock()

	if writeMeta {
		m.store.WriteMeta(id, meta) //nolint:errcheck // best-effort; GC falls back to modtime
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer close(js.done)
		defer cancel()
		m.runJob(ctx, js)
	}()
	return job, created, nil
}

// finish flips the job to a terminal status, stamps Finished, and
// persists the lifecycle record so TTL GC survives restarts.
func (m *Manager) finish(js *jobState, status JobStatus, errMsg string) {
	m.mu.Lock()
	js.job.Status = status
	js.job.Error = errMsg
	js.job.Finished = m.now()
	meta := store.Meta{Created: js.job.Created, Finished: js.job.Finished}
	id := js.job.ID
	job := js.job
	m.mu.Unlock()
	m.store.WriteMeta(id, meta) //nolint:errcheck // best-effort; GC falls back to Created
	m.fireFinishHooks(job)
}

// executorFor composes the job's compute backend: the sharding provider's
// executor when one is installed (falling back to the local pool when it
// declines the job), wrapped in the in-flight dedup layer when the cache
// is enabled so concurrent sweeps sharing a kernel never compute the same
// cell twice.
func (m *Manager) executorFor(js *jobState, sp Spec, kernel string) dynamics.Executor {
	m.mu.Lock()
	provider := m.execProvider
	m.mu.Unlock()
	var exec dynamics.Executor
	if provider != nil {
		exec = provider.ExecutorFor(sp, func(cells int) {
			m.mu.Lock()
			js.job.RemoteCells += cells
			m.remoteCells += uint64(cells)
			m.mu.Unlock()
		})
	}
	if exec == nil {
		exec = dynamics.LocalExecutor{}
	}
	return m.wrapDedup(kernel, exec)
}

// wrapDedup layers in-flight (kernel, cell) coalescing over an executor
// when the cache is enabled (the flight registry lives in the cache).
func (m *Manager) wrapDedup(kernel string, exec dynamics.Executor) dynamics.Executor {
	if !m.cache.enabled() {
		return exec
	}
	return &dedupExecutor{cache: m.cache, kernel: kernel, inner: exec}
}

// runJob resumes the job from its checkpoint and sweeps the remaining
// cells, appending each result (in canonical cell order) as one JSONL
// line. Cells found in the cross-job cache are reused without
// recomputation but still checkpointed, so the results file of any
// completed job is always the full canonical grid.
func (m *Manager) runJob(ctx context.Context, js *jobState) {
	id, sp := js.job.ID, js.job.Spec
	fail := func(err error) { m.finish(js, StatusFailed, err.Error()) }

	kernel := sp.KernelHash()
	if sp.Trajectories {
		// Truncate checkpoint and sidecar to their longest common
		// cell-prefix before reading either: crash damage (surplus
		// sidecar record from a mid-append kill, or a tail one file
		// persisted and the other lost to power failure) is dropped and
		// recomputed deterministically, so the finished pair is always
		// byte-identical to an uninterrupted run's.
		if err := m.store.ReconcileTrajectories(id); err != nil {
			fail(err)
			return
		}
	}
	prior, err := m.store.LoadResults(id)
	if err != nil {
		fail(err)
		return
	}
	// Trajectory jobs bypass the shared result cache entirely: its codec
	// drops PerRound, so a cache-served cell would leave a silent hole in
	// the sidecar. Every trajectory cell is either resumed from this
	// job's own checkpoint (its sidecar record already written) or
	// computed fresh (in-flight dedup still applies — flights carry the
	// full in-memory Result, PerRound included).
	useCache := !sp.Trajectories

	// Keep only the light summaries of checkpointed cells: their final
	// states go into the cache as encoded lines and are then released,
	// so resuming a huge job does not pin every decoded state in memory.
	inCheckpoint := make(map[dynamics.Cell]bool, len(prior))
	priorByCell := make(map[dynamics.Cell]dynamics.Result, len(prior))
	for _, r := range prior {
		if useCache {
			if line, err := ncgio.MarshalCellResult(r); err == nil {
				m.cache.Put(kernel, r.Cell, line)
			}
		}
		inCheckpoint[r.Cell] = true
		res := r.Result
		res.Final = nil
		priorByCell[r.Cell] = res
	}
	prior = nil

	w, err := m.store.Appender(id)
	if err != nil {
		fail(err)
		return
	}
	defer w.Close()

	// Trajectory jobs stream per-round stats into a sidecar next to the
	// checkpoint (reconciled above); the main codec stays small.
	var tw *ncgio.CheckpointWriter
	if sp.Trajectories {
		tw, err = m.store.TrajectoryAppender(id)
		if err != nil {
			fail(err)
			return
		}
		defer tw.Close()
	}

	have := func(c dynamics.Cell) (dynamics.Result, bool) {
		if r, ok := priorByCell[c]; ok {
			return r, true
		}
		if useCache {
			if line, ok := m.cache.Get(kernel, c); ok {
				if r, err := ncgio.UnmarshalCellResult(line); err == nil {
					m.mu.Lock()
					js.job.CacheHits++
					m.mu.Unlock()
					return r.Result, true
				}
			}
		}
		return dynamics.Result{}, false
	}
	onResult := func(_ int, r dynamics.CellResult, reused bool) error {
		if inCheckpoint[r.Cell] {
			// Already on disk (and cached above); just count it. Its
			// trajectory line (if any) was appended before the interruption.
			m.mu.Lock()
			js.job.Completed++
			m.mu.Unlock()
			return nil
		}
		line, err := ncgio.MarshalCellResult(r)
		if err != nil {
			return err
		}
		if tw != nil && !reused && len(r.Result.PerRound) > 0 {
			// Sidecar line BEFORE checkpoint line: a process kill between
			// the two appends then leaves a surplus sidecar record rather
			// than a checkpointed cell with no trajectory; either way —
			// including a power loss persisting one file's tail but not
			// the other's — resume truncates both files to their common
			// prefix and recomputes the difference.
			tline, err := ncgio.MarshalTrajectory(r.Cell, r.Result.PerRound)
			if err != nil {
				return err
			}
			if err := tw.AppendLine(tline); err != nil {
				return err
			}
		}
		if err := w.AppendLine(line); err != nil {
			return err
		}
		if useCache {
			m.cache.Put(kernel, r.Cell, line)
		}
		m.mu.Lock()
		js.job.Completed++
		m.cellsAppended++
		m.mu.Unlock()
		return nil
	}
	observe := func(_ int, d time.Duration) {
		m.mu.Lock()
		js.hist.observe(d.Seconds())
		m.mu.Unlock()
	}

	_, err = dynamics.SweepContext(ctx, sp.Cells(), sp.Config(), sp.Factory(), sp.BaseSeed, dynamics.SweepOptions{
		Workers:        m.workers,
		Gate:           m.gate,
		Have:           have,
		OnResult:       onResult,
		DiscardResults: true,
		Executor:       m.executorFor(js, sp, kernel),
		Observe:        observe,
	})
	if err := w.Sync(); err != nil {
		fail(err)
		return
	}
	if tw != nil {
		// Same invariant as the checkpoint: a terminal status is only ever
		// observed after every sidecar byte is durable.
		if err := tw.Sync(); err != nil {
			fail(err)
			return
		}
	}
	switch {
	case err == nil:
		m.finish(js, StatusDone, "")
	case ctx.Err() != nil:
		m.finish(js, StatusCanceled, "")
	default:
		fail(err)
	}
}

// ServeLease computes the contiguous cell range [start, end) of the
// spec's canonical grid on the local worker pool, emitting one canonical
// ncgio CellResult line per cell in canonical order — the follower half
// of the peer-sharding protocol (POST /peer/leases). Lease work draws
// from the same worker gate as local jobs, so a daemon serving peers
// never exceeds its configured CPU-bound concurrency, and it shares the
// result cache both ways: cached cells are served without recomputation,
// computed cells warm the cache (and coalesce with any local job
// computing the same kernel). The spec must be normalized and validated
// by the caller.
//
// Trajectory specs change the framing, not the protocol: each cell is
// emitted as one ncgio lease record wrapping the canonical result line
// with its per-round stats (the checkpoint codec drops them, so bare
// lines could not carry the very data the spec asked for). Such leases
// bypass the result cache in both directions — its codec would strip
// PerRound and hand a later lease a record with a silent hole — but
// in-flight dedup still applies (flights carry the full in-memory
// Result).
func (m *Manager) ServeLease(ctx context.Context, sp Spec, start, end int, emit func(line []byte) error) error {
	if n := sp.NumCells(); start < 0 || end > n || start >= end {
		return fmt.Errorf("sweepd: lease range [%d, %d) outside grid of %d cells", start, end, n)
	}
	// Expand only the leased range: a follower serving thousands of
	// leases against a six-figure grid must not pay O(grid) per lease.
	sub := sp.CellsRange(start, end)
	kernel := sp.KernelHash()
	useCache := !sp.Trajectories
	have := func(c dynamics.Cell) (dynamics.Result, bool) {
		if useCache {
			if line, ok := m.cache.Get(kernel, c); ok {
				if r, err := ncgio.UnmarshalCellResult(line); err == nil {
					return r.Result, true
				}
			}
		}
		return dynamics.Result{}, false
	}
	onResult := func(_ int, r dynamics.CellResult, reused bool) error {
		line, err := ncgio.MarshalCellResult(r)
		if err != nil {
			return err
		}
		if sp.Trajectories {
			rec, err := ncgio.MarshalLeaseRecord(line, r.Result.PerRound)
			if err != nil {
				return err
			}
			return emit(rec)
		}
		if !reused {
			// Memory tier only: this kernel may belong to no local job,
			// and a segment without an owning job is never GC'd.
			m.cache.PutMemory(kernel, r.Cell, line)
		}
		return emit(line)
	}
	_, err := dynamics.SweepContext(ctx, sub, sp.Config(), sp.Factory(), sp.BaseSeed, dynamics.SweepOptions{
		Workers:        m.workers,
		Gate:           m.gate,
		Have:           have,
		OnResult:       onResult,
		DiscardResults: true,
		Executor:       m.wrapDedup(kernel, dynamics.LocalExecutor{}),
	})
	return err
}

// JobLatencies snapshots every job's per-cell wall-time histogram,
// sorted by job ID (jobs with no locally computed cells yet are
// skipped, so /metrics never emits all-zero series).
func (m *Manager) JobLatencies() []JobLatency {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobLatency, 0, len(m.jobs))
	for id, js := range m.jobs {
		if js.hist == nil || js.hist.n == 0 {
			continue
		}
		counts := make([]uint64, len(js.hist.counts))
		copy(counts, js.hist.counts)
		out = append(out, JobLatency{
			ID:      id,
			Buckets: latencyBuckets,
			Counts:  counts,
			Sum:     js.hist.sum,
			Count:   js.hist.n,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get snapshots one job.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return js.job, true
}

// List snapshots all jobs, sorted by ID.
func (m *Manager) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.jobs))
	for _, js := range m.jobs {
		out = append(out, js.job)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Cancel stops a running job, keeping its checkpoint for later resume.
// It returns the job snapshot taken at the moment of the request and
// whether the job exists; callers distinguish a genuine cancellation
// (snapshot status "running") from a no-op on an already-terminal job by
// inspecting that status.
func (m *Manager) Cancel(id string) (Job, bool) {
	m.mu.Lock()
	js, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Job{}, false
	}
	job := js.job
	if js.job.Status == StatusRunning {
		js.canceling = true
	}
	m.mu.Unlock()
	js.cancel()
	return job, true
}

// Evict removes a terminal job entirely: its store directory (spec,
// meta, checkpoint), its kernel's cache spill segment when no other
// retained job shares the kernel, and its registration — after which
// GET /sweeps/{id} is a 404 and resubmitting the spec recomputes from
// scratch. It reports ok=false for an unknown job and ErrJobRunning for
// a job that is still running (cancel first) or mid-purge (retry). A
// resubmit racing an eviction gets the stale terminal snapshot back —
// never a runner inside a directory being deleted.
func (m *Manager) Evict(id string) (Job, bool, error) {
	for {
		m.mu.Lock()
		js, ok := m.jobs[id]
		if !ok {
			m.mu.Unlock()
			return Job{}, false, nil
		}
		if js.job.Status == StatusRunning || js.evicting {
			job := js.job
			m.mu.Unlock()
			return job, true, ErrJobRunning
		}
		m.mu.Unlock()
		// Wait for the runner to fully drain (checkpoint file closed)
		// before deleting its files; for long-terminal jobs done is
		// already closed.
		<-js.done
		m.mu.Lock()
		if m.jobs[id] != js || js.job.Status == StatusRunning {
			// Restarted or replaced while we waited; re-evaluate the
			// fresh state rather than guessing at it.
			m.mu.Unlock()
			continue
		}
		// Mark mid-eviction before releasing the lock: restartable() is
		// now false, so a concurrent resubmit returns the stale snapshot
		// instead of restarting a runner inside a directory being
		// deleted.
		js.evicting = true
		job := js.job
		// Reap the kernel's spill tier only when no other retained job
		// uses it (spec N==0 marks a zero-spec placeholder, no kernel).
		kernel := ""
		if job.Spec.N != 0 {
			kernel = job.Spec.KernelHash()
			for _, other := range m.jobs {
				if other != js && other.job.Spec.N != 0 && other.job.Spec.KernelHash() == kernel {
					kernel = ""
					break
				}
			}
		}
		m.mu.Unlock()

		var reclaimed int64
		if kernel != "" {
			reclaimed = m.cache.RemoveKernel(kernel)
		}
		if err := m.store.DeleteJob(id); err != nil {
			// Deregistering only after the files are gone keeps a failed
			// purge retryable: the API must not report a sweep vanished
			// while its directory survives to resurrect at next restart.
			m.mu.Lock()
			js.evicting = false
			m.mu.Unlock()
			return job, true, err
		}

		m.mu.Lock()
		delete(m.jobs, id)
		m.jobsEvicted++
		m.spillBytesReclaimed += uint64(reclaimed)
		hooks := slices.Clone(m.evictHooks)
		m.mu.Unlock()
		for _, fn := range hooks {
			fn(id)
		}
		return job, true, nil
	}
}

// StartGC launches the background TTL collector: every interval it
// sweeps orphan job dirs and evicts done/failed jobs whose terminal
// timestamp is at least ttl old. Canceled jobs keep their checkpoints
// (they are resumable), and running jobs are never touched. ttl <= 0
// disables GC entirely. Close stops the loop.
func (m *Manager) StartGC(ttl, interval time.Duration) {
	if ttl <= 0 {
		return
	}
	if interval <= 0 {
		interval = time.Minute
	}
	m.gcWG.Add(1)
	go func() {
		defer m.gcWG.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-m.ctx.Done():
				return
			case <-ticker.C:
				m.gcOnce(ttl)
			}
		}
	}()
}

// gcOnce runs one GC pass: sweep half-created orphan dirs older than
// ttl, expire replicas stored at least ttl ago (their receiver-stamped
// clock, so expiry never depends on the dead leader's clock), then
// evict every done/failed job whose terminal timestamp (or, lacking
// one, its creation time) is at least ttl old.
func (m *Manager) gcOnce(ttl time.Duration) {
	cutoff := m.now().Add(-ttl)
	m.store.SweepOrphans(cutoff) //nolint:errcheck // best-effort
	if rs := m.Replicas(); rs != nil {
		rs.SweepExpired(cutoff) //nolint:errcheck // best-effort
	}
	m.mu.Lock()
	var victims []string
	for id, js := range m.jobs {
		if js.job.Status != StatusDone && js.job.Status != StatusFailed {
			continue
		}
		fin := js.job.Finished
		if fin.IsZero() {
			fin = js.job.Created
		}
		if fin.IsZero() || fin.After(cutoff) {
			continue
		}
		victims = append(victims, id)
	}
	m.mu.Unlock()
	for _, id := range victims {
		m.Evict(id) //nolint:errcheck // a job revived mid-pass just survives
	}
}

// CacheStats exposes the shared cache counters (zero value if no cache).
func (m *Manager) CacheStats() CacheStats { return m.cache.Stats() }

// ManagerStats snapshots daemon-wide throughput counters for /metrics.
type ManagerStats struct {
	// CellsAppended is the number of checkpoint lines written since the
	// manager started (computed or cache-served; cells skipped on resume
	// because they were already checkpointed are not counted).
	CellsAppended uint64
	Uptime        time.Duration
	// Jobs counts jobs per lifecycle status (every status has an entry,
	// possibly 0, so metric series never appear and disappear).
	Jobs map[JobStatus]int
	// JobsEvicted / SpillBytesReclaimed count TTL-GC and explicit-purge
	// work since the manager started.
	JobsEvicted         uint64
	SpillBytesReclaimed uint64
	// RemoteCells counts cells computed by peer daemons for this
	// manager's jobs since it started.
	RemoteCells uint64
	// QueueDepth is the number of running jobs contending for the shared
	// worker gate; BusyWorkers is how many of the pool's tokens are
	// checked out right now.
	QueueDepth  int
	BusyWorkers int
	// MaxJobs echoes the retention cap (0 = unlimited).
	MaxJobs int
}

// Stats snapshots the manager's throughput and lifecycle counters. The
// walk over jobs is O(n) time but allocation-free per job, so liveness
// probes stay cheap no matter how many jobs are retained.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobs := map[JobStatus]int{StatusRunning: 0, StatusDone: 0, StatusCanceled: 0, StatusFailed: 0}
	for _, js := range m.jobs {
		jobs[js.job.Status]++
	}
	return ManagerStats{
		CellsAppended:       m.cellsAppended,
		Uptime:              time.Since(m.started),
		Jobs:                jobs,
		JobsEvicted:         m.jobsEvicted,
		SpillBytesReclaimed: m.spillBytesReclaimed,
		RemoteCells:         m.remoteCells,
		QueueDepth:          jobs[StatusRunning],
		BusyWorkers:         m.workers - len(m.gate),
		MaxJobs:             m.maxJobs,
	}
}

// Close cancels all jobs and waits for their runners (and the GC loop)
// to drain. Checkpoints stay on disk; a new manager over the same store
// resumes them.
func (m *Manager) Close() {
	m.cancel()
	m.wg.Wait()
	m.gcWG.Wait()
}

// Wait blocks until every currently admitted job's runner has returned
// (test helper; production callers poll Get/List instead).
func (m *Manager) Wait() { m.wg.Wait() }

// ResultsPath exposes the job's checkpoint path for streaming reads.
func (m *Manager) ResultsPath(id string) string { return m.store.ResultsPath(id) }

// TrajectoryPath exposes the job's trajectory sidecar path for streaming
// reads (the file exists only for specs with Trajectories set).
func (m *Manager) TrajectoryPath(id string) string { return m.store.TrajectoryPath(id) }
