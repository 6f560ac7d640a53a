package sweepd

// One cell pipeline: sweepLines is this package's only caller of
// dynamics.SweepContext and the only place a cell becomes a line. runJob
// and ServeLease are that call with two emitters, and a resumed job enters
// it as a prefix length — cells before it are skipped by index.

import (
	"context"
	"fmt"
	"os"
	"slices"
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
// its canonical line and, for a trajectory spec, its sidecar line (nil
// otherwise). A cell the result cache holds is emitted as the cached
// bytes, hit set and Result zero: nothing is decoded (Cache says why the
// bytes can be trusted). Any other cell is computed on exec — the
// executor executorFor chose, or the local pool for a lease — and encoded
// once. Cells before skip, the caller's checkpointed prefix, are not
// looked up, computed or emitted.
//
// Trajectory specs bypass the cache in both directions: its codec drops
// PerRound, so a cache-served cell would leave a silent hole in the
// sidecar. Two sweeps of one kernel running at once may both compute a
// cell neither found cached; per-cell seeding makes the two lines the same
// bytes, and the cache keeps one entry.
func (m *Manager) sweepLines(ctx context.Context, sp Spec, cells []dynamics.Cell, skip int, exec dynamics.Executor,
	observe func(i int, d time.Duration), emit func(r dynamics.CellResult, line, sidecar []byte, hit bool) error) error {
	kernel := sp.KernelHash()
	useCache := !sp.Trajectories
	if useCache && !m.cache.disabled() {
		m.retained.Do(m.retainStored)
	}
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
			var sidecar []byte
			if sp.Trajectories {
				if sidecar, err = ncgio.MarshalTrajectory(r.Cell, r.Result.PerRound); err != nil {
					return err
				}
			}
			return emit(r, line, sidecar, hit)
		},
		DiscardResults: true,
		Executor:       exec,
		Observe:        observe,
	})
	return err
}

// resumePrefix cuts the job's checkpoint and, for a trajectory job, its
// sidecar to their canonical prefixes, and both to the records both hold,
// and returns the checkpoint's retained bytes and how many cells they
// record. Every retained line is decoded in full, and the first that is
// torn, damaged, out of place or padded is cut off with all that follows,
// to be recomputed: so the finished files are the canonical grid. The
// runner appends a cell's sidecar line before its checkpoint line and
// syncs the two files apart, so a crash can leave either one longer; the
// records only one holds are recomputed too, deterministically.
func (m *Manager) resumePrefix(id string, sp Spec) (checkpoint []byte, done int, err error) {
	paths := []string{m.store.ResultsPath(id), m.store.TrajectoryPath(id)}
	if !sp.Trajectories {
		paths = paths[:1]
	}
	data := make([][]byte, len(paths))
	for i, path := range paths {
		if data[i], err = os.ReadFile(path); err != nil && !os.IsNotExist(err) {
			return nil, 0, err
		}
	}
	done = sp.kept(data...)
	for i, path := range paths {
		keep, n := 0, 0
		for _, end := range ncgio.Lines(data[i]) {
			if n == done {
				break
			}
			keep, n = end, n+1
		}
		if keep < len(data[i]) { // never true of a missing file
			if err := os.Truncate(path, int64(keep)); err != nil {
				return nil, 0, err
			}
		}
		data[i] = data[i][:keep]
	}
	return data[0], done, nil
}

// kept counts the cells a resume keeps of a job's checkpoint and, for a
// trajectory job, its sidecar: the records both canonical prefixes hold.
func (sp Spec) kept(data ...[]byte) int {
	done := sp.NumCells()
	for i, cellOf := range []func([]byte) (dynamics.Cell, error){ncgio.UnmarshalCell, trajectoryCell} {
		if i == 1 && !sp.Trajectories {
			break
		}
		keep, _ := sp.canonicalPrefix(data[i], 0, cellOf) // a refusal is where recomputing starts, not an error
		n := 0
		for range ncgio.Lines(data[i][:keep]) {
			n++
		}
		done = min(done, n)
	}
	return done
}

// runJob resumes the job from its checkpoint and sweeps the remaining
// cells, appending each result (in canonical cell order) as one JSONL
// line. Cells found in the cross-job cache are reused without
// recomputation but still checkpointed, so the results file of any
// completed job is always the full canonical grid.
func (m *Manager) runJob(ctx context.Context, js *jobState) {
	id, sp := js.job.ID, js.job.Spec
	fail := func(err error) { m.finish(js, StatusFailed, err.Error()) }

	data, done, err := m.resumePrefix(id, sp)
	if err != nil {
		fail(err)
		return
	}
	// The checkpoint serves the kernel's other jobs through the cache's
	// disk index: its retained lines are read on the kernel's next miss,
	// and each line appended here is indexed at off.
	kernel, path, off := sp.KernelHash(), m.store.ResultsPath(id), int64(len(data))
	if !sp.Trajectories {
		m.cache.retain(kernel, path, off == 0)
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

	// A trajectory job's per-round stats go to a sidecar beside the
	// checkpoint, so the checkpoint codec stays small.
	var tw *ncgio.CheckpointWriter
	if sp.Trajectories {
		tw, err = m.store.TrajectoryAppender(id)
		if err != nil {
			fail(err)
			return
		}
		defer tw.Close()
	}

	emit := func(r dynamics.CellResult, line, sidecar []byte, hit bool) error {
		if sidecar != nil {
			// The sidecar line goes first: a kill between the two appends
			// leaves a surplus sidecar record, which resume cuts.
			if err := tw.AppendLine(sidecar); err != nil {
				return err
			}
		}
		if err := w.AppendLine(line); err != nil {
			return err
		}
		if !sp.Trajectories {
			if !hit {
				m.cache.Put(kernel, r.Cell, line)
			}
			m.cache.index(kernel, path, r.Cell, off, len(line))
		}
		off += int64(len(line)) + 1
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
// spec's canonical grid on the local worker pool and hands emit each cell,
// in canonical order, as the lines the leader appends for it: its
// canonical result line, preceded for a trajectory spec by its sidecar
// line and a newline — the follower half of the peer-sharding protocol
// (POST /peer/leases). Lease work draws from the same worker gate as local
// jobs, so a daemon serving peers never exceeds its configured CPU-bound
// concurrency, and it shares the result cache both ways: cached cells are
// answered with the cache's bytes, computed cells warm its memory tier
// (and only that: no local checkpoint holds them).
// The spec must be normalized and validated by the caller.
func (m *Manager) ServeLease(ctx context.Context, sp Spec, start, end int, emit func(lines []byte) error) error {
	if n := sp.NumCells(); start < 0 || end > n || start >= end {
		return fmt.Errorf("sweepd: lease range [%d, %d) outside grid of %d cells", start, end, n)
	}
	kernel := sp.KernelHash()
	// Expand only the leased range: a follower serving thousands of
	// leases against a six-figure grid must not pay O(grid) per lease.
	return m.sweepLines(ctx, sp, sp.CellsRange(start, end), 0, dynamics.LocalExecutor{}, nil,
		func(r dynamics.CellResult, line, sidecar []byte, hit bool) error {
			if sidecar != nil {
				return emit(slices.Concat(sidecar, []byte{'\n'}, line))
			}
			if !hit {
				m.cache.Put(kernel, r.Cell, line)
			}
			return emit(line)
		})
}
