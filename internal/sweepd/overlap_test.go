package sweepd

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
)

// TestConcurrentOverlappingJobs: two jobs of one kernel whose grids overlap,
// submitted back to back, run side by side on one disk cache. Either may
// compute a shared cell the other is computing too; per-cell seeding makes
// both lines the same bytes, so each checkpoint is its spec's canonical grid,
// and the cache's disk index serves every cell of both from them.
func TestConcurrentOverlappingJobs(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewDiskCache(4096, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, cache, 4)
	defer mgr.Close()

	specs := []Spec{
		{N: 14, Alphas: []float64{0.5, 1, 2}, Ks: []int{2, 1000}, Seeds: 3},
		{N: 14, Alphas: []float64{1, 2, 5}, Ks: []int{2, 1000}, Seeds: 3},
	}
	var ids []string
	for i := range specs {
		specs[i].Normalize()
		job, _, err := mgr.Submit(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	if specs[0].KernelHash() != specs[1].KernelHash() {
		t.Fatal("test setup: the two specs must share a kernel")
	}

	distinct := map[dynamics.Cell][]byte{}
	for i, sp := range specs {
		waitStatus(t, mgr, ids[i], StatusDone)
		var want []byte
		for _, r := range dynamics.Sweep(sp.Cells(), sp.Config(), sp.Factory(), sp.BaseSeed) {
			line, err := ncgio.MarshalCellResult(r)
			if err != nil {
				t.Fatal(err)
			}
			want = append(append(want, line...), '\n')
			distinct[r.Cell] = line
		}
		got, err := os.ReadFile(store.ResultsPath(ids[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("job %d checkpoint differs from its canonical grid: %d vs %d bytes", i, len(got), len(want))
		}
	}

	// Both checkpoints are in the cache's disk index: with the memory tier
	// emptied, every distinct cell of both grids is served from one of them.
	evictAll(cache)
	before := cache.Stats().DiskHits
	for cell, line := range distinct {
		if got, ok := cache.Get(specs[0].KernelHash(), cell); !ok || !bytes.Equal(got, line) {
			t.Fatalf("cell %+v not served from a checkpoint", cell)
		}
	}
	if got := cache.Stats().DiskHits - before; got != uint64(len(distinct)) {
		t.Fatalf("%d disk hits, want the %d distinct cells of both grids", got, len(distinct))
	}
}
