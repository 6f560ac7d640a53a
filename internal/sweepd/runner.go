package sweepd

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
)

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
