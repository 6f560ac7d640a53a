package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
	"repro/internal/sweepd"
)

// Runner is the one way a driver runs a sweep: an in-process sweep daemon
// (no HTTP, no peers) over a job store. Jobs are content-addressed by
// their spec, so drivers that read the same grid share one job, a spec
// re-submitted after a kill resumes from its checkpoint's clean prefix,
// and overlapping grids of one kernel are served from the disk cache.
type Runner struct {
	*sweepd.Manager
	tmp string // the store, when Open made it; removed by Close
}

// Open starts a runner whose job store is dir and whose result cache
// spills under dir/cache — the layout of `ncg-server -data dir`, one
// process at a time. An empty dir means a temporary store that Close
// removes. There is no Manager.Resume: a job an earlier process left
// unfinished resumes when a driver submits its spec again, not before.
func Open(dir string) (*Runner, error) {
	tmp := ""
	if dir == "" {
		var err error
		if tmp, err = os.MkdirTemp("", "ncg-experiments-"); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		dir = tmp
	}
	store, err := sweepd.OpenStore(dir)
	var cache *sweepd.Cache
	if err == nil {
		cache, err = sweepd.NewDiskCache(1<<16, filepath.Join(dir, "cache")) // ncg-server's default size
	}
	if err != nil {
		os.RemoveAll(tmp) //nolint:errcheck // best-effort cleanup of our own temp dir
		return nil, err
	}
	return &Runner{Manager: sweepd.NewManager(store, cache, 0), tmp: tmp}, nil
}

// Close stops the runner and removes a temporary store.
func (r *Runner) Close() {
	r.Manager.Close()
	if r.tmp != "" {
		os.RemoveAll(r.tmp) //nolint:errcheck // best-effort cleanup of our own temp dir
	}
}

// sweep submits sp — on p's k grid and seed count, and p's α grid unless
// the driver fixed one — to p's runner, waits, and reads the checkpoint
// back: one result per cell in canonical (α, k, seed) order. A refused
// spec and a failed job (its clean prefix stays on disk) are errors.
func (p Params) sweep(sp sweepd.Spec) ([]dynamics.CellResult, error) {
	if sp.Alphas == nil {
		sp.Alphas = p.Alphas()
	}
	sp.Ks, sp.Seeds = p.Ks(), p.Seeds()
	job, _, err := p.Runner.Submit(sp)
	if err != nil {
		return nil, err
	}
	p.Runner.Wait()
	if job, _ = p.Runner.Get(job.ID); job.Status != sweepd.StatusDone {
		return nil, fmt.Errorf("experiments: sweep job %s %s: %s", job.ID, job.Status, job.Error)
	}
	results, err := ncgio.ReadCheckpoint(p.Runner.ResultsPath(job.ID))
	if err == nil && len(results) != job.Total {
		err = fmt.Errorf("experiments: sweep job %s: checkpoint holds %d of %d cells", job.ID, len(results), job.Total)
	}
	return results, err
}
