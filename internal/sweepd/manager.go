package sweepd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

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

	started time.Time // on the daemon's clock (clock.go)

	mu   sync.Mutex
	jobs map[string]*jobState
	// running counts the jobs whose status is StatusRunning: admit adds
	// one, finish takes it away. The quota and Load read it.
	running int
	// maxJobs caps running jobs; 0 = unlimited. Retention is -job-ttl's.
	maxJobs int
	// evictHooks run (outside mu) after each eviction or replica expiry;
	// the HTTP layer registers one to drop its per-job summary state.
	evictHooks []func(id string)
	// finishHooks run (outside mu) each time a job reaches a terminal
	// status; the replicator registers one to push finished checkpoints.
	finishHooks []func(job Job)
	// cellsAppended counts checkpoint lines written since this manager
	// started (computed or cache-served; resume-skipped cells excluded),
	// feeding the /metrics throughput gauges.
	cellsAppended uint64
	// jobsEvicted counts GC (and explicit purge) work since the manager
	// started.
	jobsEvicted uint64
	// retained is done once the store's jobs are in the cache's disk
	// index (retainStored).
	retained sync.Once
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
		started: Time().Now(),
		jobs:    make(map[string]*jobState),
	}
}

// SetMaxJobs caps the number of running jobs (0 = unlimited). At the
// cap, Submit of a new spec fails with ErrJobQuota; resubmits of
// retained jobs and restart-time Resume are exempt, and finished jobs
// do not count (TTL GC bounds how many are kept). Call before serving
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
// explicit purge) and each replica expiry, outside the manager lock. Used
// by the HTTP layer to release per-job serving state.
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

// ReplicaFiles returns the checkpoint and sidecar (nil without
// trajectories) of a locally held replica of the job, or two nils when
// there is none: an adoption's seed.
func (m *Manager) ReplicaFiles(id string) (checkpoint, sidecar []byte) {
	rs := m.Replicas()
	if rs == nil {
		return nil, nil
	}
	if man, err := rs.Manifest(id); err != nil || man.JobID != id {
		return nil, nil
	}
	checkpoint, err := os.ReadFile(rs.ResultsPath(id))
	if err != nil {
		return nil, nil
	}
	sidecar, _ = os.ReadFile(rs.TrajectoryPath(id)) // absent unless the spec collected trajectories
	return checkpoint, sidecar
}

// fire runs the hooks registered in *hooks — finishHooks with a job
// snapshot, evictHooks with an ID — for each v: snapshotted under mu, run
// outside it.
func fire[T any](m *Manager, hooks *[]func(T), vs ...T) {
	m.mu.Lock()
	fns := slices.Clone(*hooks)
	m.mu.Unlock()
	for _, v := range vs {
		for _, fn := range fns {
			fn(v)
		}
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
					created = Time().Now()
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

// retainStored puts the checkpoint of every valid non-trajectory job the
// store holds in the cache's disk index, so a cell that any retained
// checkpoint of its kernel holds is served from it, whether or not this
// process ran that job (internal/experiments runs without Resume). A
// manager does it once, before its first cache look-up; a job admitted
// later retains its checkpoint when its runner starts.
func (m *Manager) retainStored() {
	ids, _ := m.store.Jobs() // an unlisted store retains nothing
	for _, id := range ids {
		if sp, err := m.store.LoadSpec(id); err == nil && sp.Validate() == nil && !sp.Trajectories {
			m.cache.retain(sp.KernelHash(), m.store.ResultsPath(id), false)
		}
	}
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
// spec comes from the job's gossiped lease, and checkpoint and sidecar
// (either may be nil; sidecar is nil without trajectories) are its seed,
// a replica of the job or a peer's checkpoint tail. They replace the job's
// files as raw bytes before the runner starts, and its resume judges them
// like its own, so adoption resumes wherever bytes survived. Adoption is
// quota-exempt: an orphaned job must land somewhere, and the adopter was
// chosen as the least-loaded member.
func (m *Manager) Adopt(sp Spec, checkpoint, sidecar []byte) (Job, bool, error) {
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		return Job{}, false, err
	}
	if _, _, err := m.store.CreateJob(sp); err != nil {
		return Job{}, false, fmt.Errorf("%w: %w", ErrStore, err)
	}
	id := sp.ID()
	paths := []string{m.store.ResultsPath(id), m.store.TrajectoryPath(id)}
	tmps := []string{stage(paths[0], checkpoint), stage(paths[1], sidecar)}
	// Only the commit happens under mu. admit also registers under mu
	// before spawning a runner, so no runner can have the files open while
	// they are replaced; a non-empty local checkpoint wins outright (it is
	// this daemon's own writing), sidecar and all.
	m.mu.Lock()
	_, registered := m.jobs[id]
	if fi, err := os.Stat(paths[0]); tmps[0] != "" && !registered && (err != nil || fi.Size() == 0) {
		for i, tmp := range tmps {
			os.Rename(tmp, paths[i]) //nolint:errcheck // "" fails harmlessly; resume keeps what both files hold
		}
	}
	m.mu.Unlock()
	for _, tmp := range tmps {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup of what was not committed
	}
	return m.admit(sp, false)
}

// stage writes raw to a temp file of its own beside path and returns its
// name, "" when raw is empty or the write fails. Nothing is judged here,
// under or before the manager lock: the runner's resume does that.
func stage(path string, raw []byte) string {
	if len(raw) == 0 {
		return ""
	}
	f, err := os.CreateTemp(filepath.Dir(path), "adopt-*")
	if err != nil {
		return ""
	}
	if _, err = f.Write(raw); err == nil {
		err = f.Chmod(0o644) // the mode the appender creates a checkpoint with
	}
	if cerr := f.Close(); err != nil || cerr != nil {
		os.Remove(f.Name()) //nolint:errcheck // best-effort cleanup
		return ""
	}
	return f.Name()
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
		meta = store.Meta{Created: Time().Now()}
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
	} else if enforceQuota && m.maxJobs > 0 && m.running >= m.maxJobs {
		n := m.running
		m.mu.Unlock()
		return Job{}, false, fmt.Errorf("%w: %d jobs running (max %d); retry once one finishes",
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
	old := m.jobs[id]
	if old != nil {
		old.notify() // its watchers hold a state the restart replaces
	}
	created := old == nil
	m.jobs[id] = js
	m.running++
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

// finish flips the job to a terminal status, stamps Finished, wakes the
// job's followers, and persists the lifecycle record so TTL GC survives
// restarts.
func (m *Manager) finish(js *jobState, status JobStatus, errMsg string) {
	m.mu.Lock()
	js.job.Status = status
	js.job.Error = errMsg
	js.job.Finished = Time().Now()
	m.running--
	js.notify()
	meta := store.Meta{Created: js.job.Created, Finished: js.job.Finished}
	id := js.job.ID
	job := js.job
	m.mu.Unlock()
	m.store.WriteMeta(id, meta) //nolint:errcheck // best-effort; GC falls back to Created
	fire(m, &m.finishHooks, job)
}
