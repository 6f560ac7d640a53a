package sweepd

// One cell pipeline: sweepLines is this package's only caller of
// dynamics.SweepContext and the only place a cell becomes a line. runJob
// and ServeLease are that call with two emitters, and a resumed job enters
// it as a prefix length — cells before it are skipped by index.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
)

// executorFor picks the job's compute backend: the sharding provider's
// executor when one is installed, the local pool when none is or when it
// declines the job.
func (m *Manager) executorFor(js *jobState, sp Spec) dynamics.Executor {
	m.mu.Lock()
	provider := m.execProvider
	m.mu.Unlock()
	if provider != nil {
		if exec := provider.ExecutorFor(sp, func(cells int) {
			m.mu.Lock()
			js.job.RemoteCells += cells
			m.remoteCells += uint64(cells)
			m.mu.Unlock()
		}); exec != nil {
			return exec
		}
	}
	return dynamics.LocalExecutor{}
}

// sweepLines sweeps cells — a contiguous range of sp's canonical grid —
// and hands emit every cell from position skip on, in canonical order, as
// its canonical line. A cell the result cache holds is emitted as the
// cached bytes, hit set and Result zero: nothing is decoded (Cache says
// why the bytes can be trusted). Any other cell is computed on exec — the
// executor executorFor chose, or the local pool for a lease — and encoded
// once. Cells before skip, the caller's checkpointed prefix, are not
// looked up, computed or emitted.
//
// Trajectory specs bypass the cache in both directions: its codec drops
// PerRound, so a cache-served cell would leave a silent hole in the
// sidecar or the lease record. Two sweeps of one kernel running at once
// may both compute a cell neither found cached; per-cell seeding makes
// the two lines the same bytes, and the cache keeps one entry and spills
// it once.
func (m *Manager) sweepLines(ctx context.Context, sp Spec, cells []dynamics.Cell, skip int, exec dynamics.Executor,
	observe func(i int, d time.Duration), emit func(r dynamics.CellResult, line []byte, hit bool) error) error {
	kernel := sp.KernelHash()
	useCache := !sp.Trajectories
	// hits holds a cache-served cell's line from the look-up until its turn
	// in the sequencer.
	hits := make([][]byte, len(cells))
	_, err := dynamics.SweepContext(ctx, cells, sp.Config(), sp.Factory(), sp.BaseSeed, dynamics.SweepOptions{
		Workers: m.workers,
		Gate:    m.gate,
		Have: func(i int, c dynamics.Cell) (_ dynamics.Result, have bool) {
			if i < skip {
				return dynamics.Result{}, true
			}
			if useCache {
				hits[i], have = m.cache.Get(kernel, c)
			}
			return dynamics.Result{}, have
		},
		OnResult: func(i int, r dynamics.CellResult, hit bool) (err error) {
			if i < skip {
				return nil
			}
			line := hits[i]
			hits[i] = nil
			if !hit {
				if line, err = ncgio.MarshalCellResult(r); err != nil {
					return err
				}
			}
			return emit(r, line, hit)
		},
		DiscardResults: true,
		Executor:       exec,
		Observe:        observe,
	})
	return err
}

// runJob resumes the job from its checkpoint and sweeps the remaining
// cells, appending each result (in canonical cell order) as one JSONL
// line. Cells found in the cross-job cache are reused without
// recomputation but still checkpointed, so the results file of any
// completed job is always the full canonical grid.
func (m *Manager) runJob(ctx context.Context, js *jobState) {
	id, sp := js.job.ID, js.job.Spec
	fail := func(err error) { m.finish(js, StatusFailed, err.Error()) }

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
	// What survives of an earlier run is the checkpoint's canonical prefix:
	// every retained line is decoded in full, and the first that is torn,
	// damaged, out of place or padded is cut off with all that follows and
	// recomputed, so the finished file is the canonical grid.
	path := m.store.ResultsPath(id)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		fail(err)
		return
	}
	keep, _ := sp.canonicalPrefix(data, ncgio.UnmarshalCell) // a refusal is where recomputing starts, not an error
	if keep < len(data) {
		err = os.Truncate(path, int64(keep))
		if err == nil && sp.Trajectories {
			err = m.store.ReconcileTrajectories(id) // the sidecar agreed with the longer prefix
		}
		if err != nil {
			fail(err)
			return
		}
	}
	// The retained lines warm the cache as bytes — copied, so that an entry
	// does not pin the file buffer — and their count is the resume point.
	kernel := sp.KernelHash()
	done := 0
	for line := range ncgio.Lines(data[:keep]) {
		if !sp.Trajectories {
			m.cache.Put(kernel, sp.CellAt(done), bytes.Clone(line))
		}
		done++
	}
	m.mu.Lock()
	js.job.Completed = done
	m.mu.Unlock()
	if err := sp.checkKernel(); err != nil && done < sp.NumCells() {
		fail(err) // a stored spec of an older kernel is served, never computed on
		return
	}

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

	emit := func(r dynamics.CellResult, line []byte, hit bool) error {
		if tw != nil && len(r.Result.PerRound) > 0 {
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
		if !hit && !sp.Trajectories {
			m.cache.Put(kernel, r.Cell, line)
		}
		m.mu.Lock()
		js.job.Completed++
		if hit {
			js.job.CacheHits++
		}
		m.cellsAppended++
		m.mu.Unlock()
		return nil
	}
	observe := func(_ int, d time.Duration) {
		m.mu.Lock()
		js.hist.observe(d.Seconds())
		m.mu.Unlock()
	}

	err = m.sweepLines(ctx, sp, sp.Cells(), done, m.executorFor(js, sp), observe, emit)
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
// result cache both ways: cached cells are answered with the cache's
// bytes, computed cells warm its memory tier. The spec must be normalized
// and validated by the caller.
//
// Trajectory specs change the framing, not the protocol: each cell is
// emitted as one ncgio lease record wrapping the canonical result line
// with its per-round stats (the checkpoint codec drops them, so bare
// lines could not carry the very data the spec asked for).
func (m *Manager) ServeLease(ctx context.Context, sp Spec, start, end int, emit func(line []byte) error) error {
	if n := sp.NumCells(); start < 0 || end > n || start >= end {
		return fmt.Errorf("sweepd: lease range [%d, %d) outside grid of %d cells", start, end, n)
	}
	kernel := sp.KernelHash()
	// Expand only the leased range: a follower serving thousands of
	// leases against a six-figure grid must not pay O(grid) per lease.
	return m.sweepLines(ctx, sp, sp.CellsRange(start, end), 0, dynamics.LocalExecutor{}, nil,
		func(r dynamics.CellResult, line []byte, hit bool) error {
			if sp.Trajectories {
				rec, err := ncgio.MarshalLeaseRecord(line, r.Result.PerRound)
				if err != nil {
					return err
				}
				return emit(rec)
			}
			if !hit {
				// Memory tier only: this kernel may belong to no local job,
				// and a segment without an owning job is never GC'd.
				m.cache.PutMemory(kernel, r.Cell, line)
			}
			return emit(line)
		})
}
