package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
)

// runSweep is the single sweep entry point for every figure and table
// driver: a plain in-memory dynamics.Sweep normally, or a resumable
// checkpointed sweep when Params.CheckpointDir is set. label names the
// sweep for humans; the checkpoint filename also carries a hash of the
// label, the grid, the seed, and the dynamics budget, so a changed
// configuration gets a fresh file instead of resuming a stale one.
func runSweep(p Params, label string, cells []dynamics.Cell, cfg dynamics.Config, factory dynamics.Factory, seed int64) []dynamics.CellResult {
	if p.CheckpointDir == "" {
		return dynamics.Sweep(cells, cfg, factory, seed)
	}
	res, err := checkpointedSweep(checkpointPath(p.CheckpointDir, label, cells, cfg, seed), cells, cfg, factory, seed)
	if err != nil {
		// Checkpointing is an optimization; never let an I/O problem take
		// down a figure run.
		fmt.Fprintf(os.Stderr, "experiments: checkpoint %s unavailable (%v); running in memory\n", label, err)
		return dynamics.Sweep(cells, cfg, factory, seed)
	}
	return res
}

// checkpointPath derives the sweep's checkpoint file. Everything that
// determines the results is folded into the name, so distinct sweeps
// never share a file and identical sweeps (e.g. the tree sweep shared by
// Figure 5, Figure 10 and the cycle census) always do.
func checkpointPath(dir, label string, cells []dynamics.Cell, cfg dynamics.Config, seed int64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d", label, seed, cfg.Variant, cfg.MaxRounds, cfg.CycleCheckAfter, len(cells))
	for _, c := range cells {
		fmt.Fprintf(h, "|%g,%d,%d", c.Alpha, c.K, c.Seed)
	}
	return filepath.Join(dir, fmt.Sprintf("%s-%016x.jsonl", label, h.Sum64()))
}

// checkpointedSweep resumes from path (repairing a torn tail), sweeps the
// remaining cells, and appends each new result as one canonical JSONL
// line in cell order. A write error mid-sweep (disk full, file yanked)
// stops further checkpointing but never the sweep itself — the computed
// results are worth far more than the checkpoint, which is only an
// optimization for the next run.
func checkpointedSweep(path string, cells []dynamics.Cell, cfg dynamics.Config, factory dynamics.Factory, seed int64) ([]dynamics.CellResult, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	prior, err := ncgio.ReadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	done := make(map[dynamics.Cell]dynamics.Result, len(prior))
	for _, r := range prior {
		done[r.Cell] = r.Result
	}
	w, err := ncgio.NewCheckpointWriter(path)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	writeBroken := false
	return dynamics.SweepContext(context.Background(), cells, cfg, factory, seed, dynamics.SweepOptions{
		Have: func(_ int, c dynamics.Cell) (dynamics.Result, bool) {
			r, ok := done[c]
			return r, ok
		},
		OnResult: func(_ int, r dynamics.CellResult, reused bool) error {
			if reused || writeBroken {
				return nil
			}
			if err := w.Append(r); err != nil {
				writeBroken = true
				fmt.Fprintf(os.Stderr, "experiments: checkpoint %s write failed (%v); continuing without checkpointing\n", path, err)
			}
			return nil
		},
	})
}
