package dynamics

import (
	"context"
	"fmt"
	"time"
)

// SweepOptions tunes SweepContext beyond the plain Sweep defaults. The
// zero value reproduces Sweep exactly.
type SweepOptions struct {
	// Workers fixes the pool size; 0 means GOMAXPROCS. Results are
	// identical for any worker count (per-cell seeding), so this only
	// trades throughput for contention.
	Workers int
	// Have, when non-nil, is consulted before computing a cell. Returning
	// (r, true) reuses r instead of re-running the dynamics — the hook for
	// checkpoint resume and cross-job result caches. It is called exactly
	// once per cell, i being the cell's position in the cells slice (the
	// index OnResult reports), in slice order, on the calling goroutine and
	// before any cell is computed or delivered — so a caller may answer by
	// position and keep what it found beside the sequencer, keyed by i.
	// Reused results are still delivered to OnResult in their canonical
	// position.
	Have func(i int, c Cell) (Result, bool)
	// OnResult, when non-nil, receives every cell's result in canonical
	// cell order (the order of the cells slice), regardless of which
	// worker finished first: result i+1 is never delivered before result
	// i. A hold-back buffer sequences out-of-order completions, so a
	// consumer that appends each call to a file gets a byte-stable prefix
	// of the full canonical output even if the sweep is killed mid-run.
	// Reused is true when the result came from Have. A non-nil error
	// cancels the sweep.
	OnResult func(i int, r CellResult, reused bool) error
	// DiscardResults releases each result (including its final state)
	// right after its OnResult delivery instead of accumulating the full
	// slice — the streaming mode for sweeps far larger than memory. The
	// returned slice then holds zero values. Completed-but-not-yet-emitted
	// results are still buffered (the hold-back window), which stays
	// small unless one early cell is pathologically slower than the rest.
	DiscardResults bool
	// Gate, when non-nil, is a shared token bucket: each worker takes a
	// token before running a cell and returns it after, letting one
	// process-wide bucket cap CPU-bound concurrency across many
	// concurrent sweeps (the sweepd daemon's global worker cap).
	Gate chan struct{}
	// Executor is the compute backend; nil means LocalExecutor (the
	// in-process pool). Per-cell seeding makes results identical for any
	// backend, so swapping executors only changes where cells run — the
	// sweepd daemon plugs in a peer-sharding executor here.
	Executor Executor
	// Observe, when non-nil, receives the wall time of every locally
	// computed cell (reused and remote cells excluded). It may be called
	// concurrently from worker goroutines.
	Observe func(i int, d time.Duration)
}

// SweepContext is Sweep with cancellation, resume, and streaming. It
// resolves reusable cells via Have, hands the remainder to the configured
// Executor (an in-process pool by default), and sequences results back
// into canonical cell order. Each cell derives a private RNG from baseSeed
// and its own coordinates, so results are bit-identical regardless of
// worker count, scheduling, resume point, or which backend computed each
// cell — the hpc-parallel "determinism independent of schedule" rule,
// extended to "independent of interruption and placement".
//
// On cancellation it returns the partial results computed so far together
// with ctx.Err(); entries never reached hold the CellResult zero value
// (nil Result.Final). An OnResult error likewise aborts the sweep and is
// returned. An executor that closes its channel without delivering every
// todo cell (and without a context error) is reported as an error rather
// than silently shorting the grid.
func SweepContext(ctx context.Context, cells []Cell, base Config, factory Factory, baseSeed int64, opt SweepOptions) ([]CellResult, error) {
	out := make([]CellResult, len(cells))
	reused := make([]bool, len(cells))

	// Resolve reusable cells up front so the executor only sees real work.
	todo := make([]int, 0, len(cells))
	for i, c := range cells {
		if opt.Have != nil {
			if r, ok := opt.Have(i, c); ok {
				out[i] = CellResult{Cell: c, Result: r}
				reused[i] = true
				continue
			}
		}
		todo = append(todo, i)
	}

	exec := opt.Executor
	if exec == nil {
		exec = LocalExecutor{}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := exec.Execute(ctx, ExecRequest{
		Cells:    cells,
		Todo:     todo,
		Base:     base,
		Factory:  factory,
		BaseSeed: baseSeed,
		Workers:  opt.Workers,
		Gate:     opt.Gate,
		Observe:  opt.Observe,
	})

	// Sequencer: emit results in canonical order. Reused cells are ready
	// immediately; computed cells become ready as the executor delivers.
	ready := make(map[int]bool)
	nextEmit := 0
	var emitErr error
	emit := func() {
		for nextEmit < len(cells) {
			if !reused[nextEmit] && !ready[nextEmit] {
				return
			}
			delete(ready, nextEmit)
			if opt.OnResult != nil && emitErr == nil {
				if err := opt.OnResult(nextEmit, out[nextEmit], reused[nextEmit]); err != nil {
					emitErr = err
					cancel()
				}
			}
			if opt.DiscardResults {
				out[nextEmit] = CellResult{}
			}
			nextEmit++
		}
	}
	emit()
	delivered := 0
	for ir := range results {
		if ir.Index < 0 || ir.Index >= len(cells) {
			continue // defensive: a buggy executor must not panic the sweep
		}
		out[ir.Index] = CellResult{Cell: cells[ir.Index], Result: ir.Result}
		ready[ir.Index] = true
		delivered++
		emit()
	}
	if emitErr != nil {
		return out, emitErr
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if delivered < len(todo) {
		return out, fmt.Errorf("dynamics: executor delivered %d of %d cells", delivered, len(todo))
	}
	return out, nil
}
