package sweepd

import (
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
)

// BenchmarkHealthz measures the liveness probe with thousands of
// retained jobs. It must stay allocation-constant per probe — the probe
// used to pay a full List() (snapshot + copy + sort of every job),
// O(n log n) with one Job copy per job, on every poll. Stats() walks
// the table without copying, so the probe's ~39 allocs/op (recorder +
// JSON encoding) are identical whether 8 or 4096 jobs are retained;
// TestHealthzAllocsConstantPerJob asserts that invariant.
func BenchmarkHealthz(b *testing.B) {
	store, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	mgr := NewManager(store, NewCache(16), 1)
	defer mgr.Close()
	registerSyntheticJobs(mgr, 4096)
	h, _ := buildHandler(mgr, Config{})
	req := httptest.NewRequest("GET", "/healthz", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.healthz(httptest.NewRecorder(), req)
	}
}

// BenchmarkCheckpointEncode measures the per-cell cost of the streaming
// checkpoint codec — the daemon pays this once per finished cell.
func BenchmarkCheckpointEncode(b *testing.B) {
	sp := Spec{N: 40, Alphas: []float64{2}, Ks: []int{1000}, Seeds: 1}
	sp.Normalize()
	res := dynamics.Sweep(sp.Cells(), sp.Config(), sp.Factory(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ncgio.MarshalCellResult(res[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointDecode measures the resume path: parsing one line
// back into a CellResult, state included.
func BenchmarkCheckpointDecode(b *testing.B) {
	sp := Spec{N: 40, Alphas: []float64{2}, Ks: []int{1000}, Seeds: 1}
	sp.Normalize()
	res := dynamics.Sweep(sp.Cells(), sp.Config(), sp.Factory(), 1)
	line, err := ncgio.MarshalCellResult(res[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ncgio.UnmarshalCellResult(line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointAppendLine measures the per-record append path the
// daemon pays once per finished cell (fsync excluded; that cost is
// batched by SyncEvery). Reusing the writer's scratch buffer instead of
// allocating per record took a 661-byte line from ~1030 ns/op, 704 B/op,
// 1 allocs/op to ~880 ns/op, 0 B/op, 0 allocs/op (dev machine, isolated
// A/B with fixed iteration counts).
func BenchmarkCheckpointAppendLine(b *testing.B) {
	sp := Spec{N: 40, Alphas: []float64{2}, Ks: []int{1000}, Seeds: 1}
	sp.Normalize()
	res := dynamics.Sweep(sp.Cells(), sp.Config(), sp.Factory(), 1)
	line, err := ncgio.MarshalCellResult(res[0])
	if err != nil {
		b.Fatal(err)
	}
	w, err := ncgio.NewCheckpointWriter(filepath.Join(b.TempDir(), "ck.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	w.SyncEvery = 1 << 30
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.AppendLine(line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheGetPut exercises the hot cache path under a realistic
// keyspace.
func BenchmarkCacheGetPut(b *testing.B) {
	c := NewCache(4096)
	line := []byte(`{"alpha":1,"k":2,"seed":0,"status":"converged","rounds":3,"total_moves":9}`)
	cells := dynamics.Grid([]float64{0.5, 1, 2, 5}, []int{2, 4, 8, 1000}, 64)
	kernels := make([]string, 4)
	for i := range kernels {
		kernels[i] = fmt.Sprintf("kernel-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel := kernels[i%len(kernels)]
		cell := cells[i%len(cells)]
		if _, ok := c.Get(kernel, cell); !ok {
			c.Put(kernel, cell, line)
		}
	}
}

// BenchmarkCacheSpill measures the disk tier on its own: put spills
// fresh cells of four kernels (the emit path pays this once per computed
// cell), get reads back cells the memory tier has evicted (decode and key
// check included), miss asks a warm kernel for a cell it never held.
func BenchmarkCacheSpill(b *testing.B) {
	kernels := make([]string, 4)
	for i := range kernels {
		kernels[i] = fmt.Sprintf("kernel-%d", i)
	}
	open := func(b *testing.B) *Cache {
		c, err := NewDiskCache(64, b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	// fill spills 4096 cells a kernel, leaving the last 64 in memory.
	fill := func(c *Cache) []dynamics.Cell {
		cells := dynamics.Grid([]float64{0.5, 1, 2, 5}, []int{2, 4, 8, 1000}, 256)
		for _, kernel := range kernels {
			for _, cell := range cells {
				c.Put(kernel, cell, cacheLine(cell))
			}
		}
		return cells
	}
	b.Run("put", func(b *testing.B) {
		sp := Spec{N: 40, Alphas: []float64{2}, Ks: []int{1000}, Seeds: 1}
		sp.Normalize()
		line, err := ncgio.MarshalCellResult(dynamics.Sweep(sp.Cells(), sp.Config(), sp.Factory(), 1)[0])
		if err != nil {
			b.Fatal(err)
		}
		c := open(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Put(kernels[i%len(kernels)], dynamics.Cell{Alpha: 2, K: 1000, Seed: int64(i)}, line)
		}
	})
	b.Run("get", func(b *testing.B) {
		c := open(b)
		cells := fill(c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := c.Get(kernels[i%len(kernels)], cells[i%len(cells)]); !ok {
				b.Fatal("spilled cell missed")
			}
		}
		b.StopTimer()
		if st := c.Stats(); st.DiskHits != uint64(b.N) {
			b.Fatalf("%d of %d reads came from disk", st.DiskHits, b.N)
		}
	})
	b.Run("miss", func(b *testing.B) {
		c := open(b)
		fill(c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := c.Get(kernels[i%len(kernels)], dynamics.Cell{Alpha: 3, K: 3, Seed: int64(i)}); ok {
				b.Fatal("unknown cell served")
			}
		}
	})
}

// BenchmarkSweepEndToEnd runs a small managed job start to finish —
// store, checkpoint, and cache included — giving the daemon's per-job
// overhead over a bare dynamics.Sweep.
func BenchmarkSweepEndToEnd(b *testing.B) {
	sp := Spec{N: 16, Alphas: []float64{1}, Ks: []int{4}, Seeds: 4}
	sp.Normalize()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store, err := OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		mgr := NewManager(store, NewCache(1024), 0)
		b.StartTimer()

		job, _, err := mgr.Submit(sp)
		if err != nil {
			b.Fatal(err)
		}
		mgr.Wait()
		if j, _ := mgr.Get(job.ID); j.Status != StatusDone {
			b.Fatalf("job ended %s: %s", j.Status, j.Error)
		}
		b.StopTimer()
		mgr.Close()
		b.StartTimer()
	}
}
