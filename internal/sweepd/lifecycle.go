package sweepd

import (
	"sort"
	"time"
)

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

// Watch snapshots one job together with a channel that is closed at its
// next status change or eviction. Both come from one lock hold, so no
// change can fall between the snapshot and the wait.
func (m *Manager) Watch(id string) (Job, <-chan struct{}, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js, ok := m.jobs[id]
	if !ok {
		return Job{}, nil, false
	}
	if js.changed == nil {
		js.changed = make(chan struct{})
	}
	return js.job, js.changed, true
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
// meta, checkpoint), its checkpoint's place in the cache's disk index
// (with its kernel's memory entries when no other retained checkpoint
// shares the kernel), and its registration — after which
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
		m.mu.Unlock()

		if err := m.store.DeleteJob(id); err != nil {
			// Deregistering only after the files are gone keeps a failed
			// purge retryable: the API must not report a sweep vanished
			// while its directory survives to resurrect at next restart.
			m.mu.Lock()
			js.evicting = false
			m.mu.Unlock()
			return job, true, err
		}

		m.cache.release(job.Spec.KernelHash(), m.store.ResultsPath(id))
		m.mu.Lock()
		delete(m.jobs, id)
		js.notify()
		m.jobsEvicted++
		m.mu.Unlock()
		fire(m, &m.evictHooks, id)
		return job, true, nil
	}
}

// StartGC launches the background TTL collector: every interval it
// sweeps orphan job dirs and evicts done/failed jobs whose terminal
// timestamp is at least ttl old. Canceled jobs keep their checkpoints
// (they are resumable), and running jobs are never touched. ttl <= 0
// disables GC entirely; interval must be positive. Close stops the loop.
func (m *Manager) StartGC(ttl, interval time.Duration) {
	if ttl <= 0 {
		return
	}
	m.gcWG.Add(1)
	tick, stop := Time().NewTicker(interval) // before StartGC returns, so the next clock step reaches the loop
	go func() {
		defer m.gcWG.Done()
		defer stop()
		for {
			select {
			case <-m.ctx.Done():
				return
			case <-tick:
				m.gcOnce(ttl)
			}
		}
	}()
}

// gcOnce runs one GC pass: sweep half-created orphan dirs older than
// ttl, expire replicas stored at least ttl ago (their receiver-stamped
// clock, so expiry never depends on the dead leader's clock; the evict
// hooks run for them, as reads served from a replica leave per-job state
// too), then evict every done/failed job whose terminal timestamp (or,
// lacking one, its creation time) is at least ttl old.
func (m *Manager) gcOnce(ttl time.Duration) {
	cutoff := Time().Now().Add(-ttl)
	m.store.SweepOrphans(cutoff) //nolint:errcheck // best-effort
	if rs := m.Replicas(); rs != nil {
		expired, _ := rs.SweepExpired(cutoff) // best-effort
		fire(m, &m.evictHooks, expired...)
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

// Load snapshots this daemon's capacity for adoption elections, replica
// targets and the /healthz load section — the same numbers ManagerStats
// reports, read off the running-job counter: every gossip pull calls it,
// so it must not walk the retained jobs.
func (m *Manager) Load() LoadInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return LoadInfo{
		QueueDepth:  m.running,
		BusyWorkers: m.workers - len(m.gate),
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
	// JobsEvicted counts TTL-GC and explicit-purge work since the manager
	// started.
	JobsEvicted uint64
	// RemoteCells counts cells computed by peer daemons for this
	// manager's jobs since it started.
	RemoteCells uint64
	// QueueDepth is the number of running jobs contending for the shared
	// worker gate; BusyWorkers is how many of the pool's tokens are
	// checked out right now.
	QueueDepth  int
	BusyWorkers int
	// MaxJobs echoes the running-job cap (0 = unlimited).
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
		CellsAppended: m.cellsAppended,
		Uptime:        Time().Now().Sub(m.started),
		Jobs:          jobs,
		JobsEvicted:   m.jobsEvicted,
		RemoteCells:   m.remoteCells,
		QueueDepth:    jobs[StatusRunning],
		BusyWorkers:   m.workers - len(m.gate),
		MaxJobs:       m.maxJobs,
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

// Wait blocks until every currently admitted job's runner has returned:
// how an in-process caller (internal/experiments) awaits its job.
func (m *Manager) Wait() { m.wg.Wait() }

// ResultsPath exposes the job's checkpoint path for streaming reads.
func (m *Manager) ResultsPath(id string) string { return m.store.ResultsPath(id) }

// TrajectoryPath exposes the job's trajectory sidecar path for streaming
// reads (the file exists only for specs with Trajectories set).
func (m *Manager) TrajectoryPath(id string) string { return m.store.TrajectoryPath(id) }
