package sweepd

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
)

// cacheLine builds a valid canonical cell-result line for cell (disk
// reads validate their content, so synthetic test lines must parse).
func cacheLine(cell dynamics.Cell) []byte {
	line, err := ncgio.MarshalCellResult(dynamics.CellResult{
		Cell:   cell,
		Result: dynamics.Result{Status: dynamics.Converged, Rounds: 1, TotalMoves: 1},
	})
	if err != nil {
		panic(err)
	}
	return line
}

// writeCheckpoint writes the cells' lines to path, a checkpoint as a
// runner leaves it, and returns its bytes.
func writeCheckpoint(t testing.TB, path string, cells []dynamics.Cell) []byte {
	t.Helper()
	var data []byte
	for _, cell := range cells {
		data = append(append(data, cacheLine(cell)...), '\n')
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCacheConcurrent hammers Put/Get/Stats from many goroutines over a
// cache small enough to evict constantly; run under -race (CI does) it
// guards the locking across both tiers. The disk variant indexes a
// checkpoint that holds half the cells.
func TestCacheConcurrent(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "memory"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			c := NewCache(8)
			cells := dynamics.Grid([]float64{0.5, 1, 2}, []int{2, 4}, 4)
			if disk {
				path := filepath.Join(t.TempDir(), "results.jsonl")
				writeCheckpoint(t, path, cells[:len(cells)/2])
				c.retain("kern", path, false)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						cell := cells[(g+i)%len(cells)]
						if line, ok := c.Get("kern", cell); ok {
							if string(line) != string(cacheLine(cell)) {
								panic("cache returned a foreign line")
							}
						} else {
							c.Put("kern", cell, cacheLine(cell))
						}
						if i%17 == 0 {
							c.Stats()
						}
					}
				}(g)
			}
			wg.Wait()
			st := c.Stats()
			if st.Entries > 8 {
				t.Fatalf("memory tier over its bound: %+v", st)
			}
			if st.Hits == 0 || st.Misses == 0 || disk != (st.DiskHits > 0) {
				t.Fatalf("degenerate workload: %+v", st)
			}
		})
	}
}

// indexed reports whether kernel has a disk index in c.
func indexed(c *Cache, kernel string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk[kernel] != nil
}

// evictAll pushes every earlier entry out of c's memory tier, so the next
// Get of one must come from the disk tier.
func evictAll(c *Cache) {
	for i := 0; i < c.max; i++ {
		cell := dynamics.Cell{Alpha: 99, K: i, Seed: -1}
		c.Put("filler", cell, cacheLine(cell))
	}
}

// TestDiskCacheSurvivesRestart is the persistence contract: a retained
// checkpoint serves its kernel however few lines the memory tier holds,
// and a fresh cache that retains it again — the next process — serves
// every line as a hit.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	cells := dynamics.Grid([]float64{1, 2, 3}, []int{2, 4}, 1) // 6 cells > memory bound 4
	data := writeCheckpoint(t, path, cells)
	c1 := NewCache(4)
	c1.retain("kern", path, false)
	for range 2 { // the second pass finds the memory tier holding the last 4
		for _, cell := range cells {
			if line, ok := c1.Get("kern", cell); !ok || string(line) != string(cacheLine(cell)) {
				t.Fatalf("cell %+v not served from its checkpoint", cell)
			}
		}
	}
	if st := c1.Stats(); st.Evictions == 0 || st.DiskHits != 2*uint64(len(cells)) {
		t.Fatalf("stats = %+v, want every read from disk", st)
	}

	// "Restart": a brand-new cache over the same checkpoint is warm, beyond
	// what its memory tier holds.
	c2 := NewCache(2)
	c2.retain("kern", path, false)
	for _, cell := range cells {
		line, ok := c2.Get("kern", cell)
		if !ok || string(line) != string(cacheLine(cell)) {
			t.Fatalf("cell %+v cold after restart", cell)
		}
	}
	st := c2.Stats()
	if st.Hits != uint64(len(cells)) || st.DiskHits != uint64(len(cells)) || st.Misses != 0 {
		t.Fatalf("restart stats = %+v, want %d disk hits and no misses", st, len(cells))
	}
	// Promoted entries now hit the memory tier.
	if _, ok := c2.Get("kern", cells[len(cells)-1]); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.DiskHits != uint64(len(cells)) {
		t.Fatalf("memory-tier hit counted as disk: %+v", st)
	}

	// A different kernel stays partitioned, an unknown cell of a known
	// kernel misses, and the checkpoint is as it was written.
	if _, ok := c2.Get("other", cells[0]); ok {
		t.Fatal("kernel hash must partition the disk tier")
	}
	if _, ok := c2.Get("kern", dynamics.Cell{Alpha: 9, K: 9, Seed: 9}); ok {
		t.Fatal("unknown cell served")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("the cache changed the checkpoint (%v)", err)
	}
}

// TestIndexLeavesCheckpointsAlone: a job of kernel K left a checkpoint
// whose last line a crash tore. A second job of K, submitted to a manager
// that never resumed the first, is served every whole line of it, and
// recomputes the torn cell; the first job's file stays byte-identical —
// only a job's own resume cuts its tail.
func TestIndexLeavesCheckpointsAlone(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := Spec{N: 10, Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 2}
	second := Spec{N: 10, Alphas: []float64{1, 2, 3}, Ks: []int{2}, Seeds: 2}
	first.Normalize()
	second.Normalize()
	if first.KernelHash() != second.KernelHash() {
		t.Fatal("test setup: the two specs must share a kernel")
	}
	want := canonicalBytes(t, second)
	lines := strings.SplitAfter(string(want), "\n")
	torn := strings.Join(lines[:3], "") + lines[3][:len(lines[3])/2]
	if _, _, err := st.CreateJob(first); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.ResultsPath(first.ID()), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	cache, err := NewDiskCache(64, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(st, cache, 2)
	defer mgr.Close()
	job := runDoneJob(t, mgr, second)
	if job.CacheHits != 3 || cache.Stats().DiskHits != 3 {
		t.Fatalf("second job: %d cache hits, stats %+v; want the first job's 3 whole lines, all from disk",
			job.CacheHits, cache.Stats())
	}
	if got, err := os.ReadFile(st.ResultsPath(first.ID())); err != nil || string(got) != torn {
		t.Fatalf("the first job's checkpoint changed under the index (%v)", err)
	}
	if got, err := os.ReadFile(st.ResultsPath(second.ID())); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the second job's checkpoint differs from its canonical grid (%v)", err)
	}
}

// canonicalBytes is sp's checkpoint as an uninterrupted run writes it.
func canonicalBytes(t *testing.T, sp Spec) []byte {
	t.Helper()
	var out []byte
	for _, r := range dynamics.Sweep(sp.Cells(), sp.Config(), sp.Factory(), sp.BaseSeed) {
		line, err := ncgio.MarshalCellResult(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// TestDiskCacheRejectsCorruptSpill: bytes of a retained checkpoint that no
// longer decode, or that decode to another cell than the index says, are
// never served; the cell misses, its neighbours hit, and its ref is
// dropped, so the line stays a miss even once its bytes are whole again.
func TestDiskCacheRejectsCorruptSpill(t *testing.T) {
	cells := dynamics.Grid([]float64{1, 2, 3}, []int{2}, 1)
	record := int64(len(cacheLine(cells[1])) + 1)
	for _, tc := range []struct {
		name    string
		with    []byte // overwrites the middle record, byte for byte
		restart bool   // the damage comes before the first read; else after
	}{
		{"undecodable, live index", []byte(strings.Repeat("#", int(record)-1)), false},
		{"undecodable, scanned", []byte(strings.Repeat("#", int(record)-1)), true},
		{"another cell's record, live index", cacheLine(cells[0]), false},
		{"another cell's record, scanned", cacheLine(cells[0]), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "results.jsonl")
			whole := writeCheckpoint(t, path, cells)
			c := NewCache(2)
			c.retain("kern", path, false)
			if !tc.restart {
				for _, cell := range cells {
					if _, ok := c.Get("kern", cell); !ok {
						t.Fatalf("cell %+v not indexed", cell)
					}
				}
				evictAll(c)
			}
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(tc.with, record); err != nil {
				t.Fatal(err)
			}
			f.Close()

			if _, ok := c.Get("kern", cells[1]); ok {
				t.Fatal("corrupt record served as a hit")
			}
			for _, cell := range []dynamics.Cell{cells[0], cells[2]} {
				if line, ok := c.Get("kern", cell); !ok || string(line) != string(cacheLine(cell)) {
					t.Fatalf("neighbour %+v of a corrupt record lost", cell)
				}
			}
			if err := os.WriteFile(path, whole, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get("kern", cells[1]); ok {
				t.Fatal("a dropped ref was served")
			}
		})
	}
}

// TestSegmentConcurrentJobs: two runners append the same cells of one
// kernel to their own checkpoints at once, indexing each line, while a
// reader asks for them: a hit always carries its cell's line, and once
// both are done every cell is served from disk.
func TestSegmentConcurrentJobs(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(8)
	cells := dynamics.Grid([]float64{0.5, 1, 2, 3}, []int{2, 3, 4, 5}, 8)
	var wg sync.WaitGroup
	for job := 0; job < 3; job++ {
		wg.Add(1)
		go func(job int) {
			defer wg.Done()
			if job == 2 {
				for _, cell := range cells {
					if line, ok := c.Get("kern", cell); ok && string(line) != string(cacheLine(cell)) {
						t.Errorf("cell %+v served a foreign line", cell)
					}
				}
				return
			}
			path := filepath.Join(dir, fmt.Sprintf("job%d.jsonl", job))
			w, err := ncgio.NewCheckpointWriter(path)
			if err != nil {
				t.Error(err)
				return
			}
			defer w.Close()
			c.retain("kern", path, true)
			var off int64
			for i := range cells {
				cell := cells[i]
				if job == 1 {
					cell = cells[len(cells)-1-i]
				}
				line := cacheLine(cell)
				if err := w.AppendLine(line); err != nil {
					t.Error(err)
					return
				}
				c.index("kern", path, cell, off, len(line))
				off += int64(len(line)) + 1
			}
		}(job)
	}
	wg.Wait()
	evictAll(c)
	before := c.Stats().DiskHits
	for _, cell := range cells {
		if line, ok := c.Get("kern", cell); !ok || string(line) != string(cacheLine(cell)) {
			t.Fatalf("cell %+v not served from disk", cell)
		}
	}
	if got := c.Stats().DiskHits - before; got != uint64(len(cells)) {
		t.Fatalf("%d disk hits, want %d", got, len(cells))
	}
}

// TestSegmentChurn: runners of several kernels append and index, evict
// their jobs (file removed, checkpoint released) and read, all at once;
// whatever the interleaving, a hit carries the cell's own line. Run under
// -race.
func TestSegmentChurn(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(4)
	cells := dynamics.Grid([]float64{1, 2}, []int{2, 3}, 2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			offs := map[string]int64{} // this runner's live checkpoints
			for i := 0; i < 2000; i++ {
				kernel := fmt.Sprintf("kern-%d", rng.Intn(6))
				path := filepath.Join(dir, fmt.Sprintf("%s-job%d.jsonl", kernel, g))
				cell := cells[rng.Intn(len(cells))]
				switch op := rng.Intn(10); {
				case op == 0:
					os.Remove(path) //nolint:errcheck // may not exist yet
					c.release(kernel, path)
					delete(offs, path)
				case op < 5:
					off, ok := offs[path]
					if !ok {
						c.retain(kernel, path, true)
					}
					line := cacheLine(cell)
					f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
					if err != nil {
						t.Error(err)
						return
					}
					_, err = f.Write(append(line, '\n'))
					f.Close()
					if err != nil {
						t.Error(err)
						return
					}
					c.index(kernel, path, cell, off, len(line))
					offs[path] = off + int64(len(line)) + 1
				default:
					if line, ok := c.Get(kernel, cell); ok && string(line) != string(cacheLine(cell)) {
						t.Errorf("kernel %s cell %+v served a foreign line", kernel, cell)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.DiskHits == 0 {
		t.Fatalf("churn never reached the disk tier: %+v", st)
	}
}

// TestSegmentDescriptorsBounded: the disk tier keeps no descriptor open
// however many kernels it serves — each read opens and closes its
// checkpoint — and serves every one of them.
func TestSegmentDescriptorsBounded(t *testing.T) {
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this platform")
		}
		return len(fds)
	}
	dir := t.TempDir()
	before := openFDs()
	c := NewCache(4)
	const kernels = 300
	cell := dynamics.Cell{Alpha: 1, K: 2, Seed: 3}
	for i := 0; i < kernels; i++ {
		path := filepath.Join(dir, fmt.Sprintf("job-%d.jsonl", i))
		writeCheckpoint(t, path, []dynamics.Cell{cell})
		c.retain(fmt.Sprintf("kern-%d", i), path, false)
	}
	for i := 0; i < kernels; i++ {
		if _, ok := c.Get(fmt.Sprintf("kern-%d", i), cell); !ok {
			t.Fatalf("kernel %d of %d lost its cell", i, kernels)
		}
	}
	if st := c.Stats(); st.DiskHits != kernels {
		t.Fatalf("reads did not reach the disk tier: %+v", st)
	}
	if grew := openFDs() - before; grew > 0 {
		t.Fatalf("%d kernels left %d descriptors open", kernels, grew)
	}
}

// TestCacheRemoveKernel: releasing an evicted job's checkpoint forgets
// its lines, while the kernel's other checkpoints still serve; releasing
// the kernel's last one removes the kernel from both tiers, leaving other
// kernels untouched.
func TestCacheRemoveKernel(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(16)
	cells := dynamics.Grid([]float64{1, 2}, []int{2}, 1)
	a, b, other := filepath.Join(dir, "a"), filepath.Join(dir, "b"), filepath.Join(dir, "other")
	writeCheckpoint(t, a, cells)
	writeCheckpoint(t, b, cells[:1])
	writeCheckpoint(t, other, cells)
	c.retain("k1", a, false)
	c.retain("k1", b, false)
	c.retain("k2", other, false)
	c.Put("k1", cells[0], cacheLine(cells[0]))
	for _, cell := range cells {
		if _, ok := c.Get("k2", cell); !ok {
			t.Fatal("k2 not served")
		}
	}

	c.release("k1", a)
	evictAll(c)
	if _, ok := c.Get("k1", cells[1]); ok {
		t.Fatal("a line only the released checkpoint holds was served")
	}
	if _, ok := c.Get("k1", cells[0]); !ok {
		t.Fatal("the kernel's remaining checkpoint lost its line")
	}
	c.release("k1", b)
	if indexed(c, "k1") {
		t.Fatal("index survived the kernel's last release")
	}
	if _, ok := c.Get("k1", cells[0]); ok {
		t.Fatal("removed kernel still served from memory")
	}
	if _, ok := c.Get("k2", cells[0]); !ok {
		t.Fatal("unrelated kernel lost")
	}
	c.release("k1", b) // twice is a no-op

	// The kernel can come back: a later job's checkpoint serves it.
	c.retain("k1", a, false)
	if _, ok := c.Get("k1", cells[1]); !ok {
		t.Fatal("kernel retained after its removal not served")
	}

	// A disabled or nil cache indexes nothing.
	for _, dc := range []*Cache{NewCache(0), nil} {
		dc.retain("k1", a, false)
		dc.index("k1", a, cells[0], 0, 1)
		dc.release("k1", a)
		if _, ok := dc.Get("k1", cells[0]); ok {
			t.Fatal("a disabled cache served a checkpoint")
		}
	}
}

// TestOneCopyOnDisk: the checkpoint is the only copy of a computed cell on
// disk. After one job finishes, every byte in the data directory lies
// under the job's store directory; the cache wrote nothing, not even its
// directory.
func TestOneCopyOnDisk(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewDiskCache(1024, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(st, cache, 2)
	defer mgr.Close()
	job := runDoneJob(t, mgr, Spec{N: 10, Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 2})
	jobDir := filepath.Join(dir, job.ID)
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !strings.HasPrefix(path, jobDir+string(filepath.Separator)) {
			t.Errorf("%s lies outside the job's store directory", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cache")); !os.IsNotExist(err) {
		t.Fatalf("the cache made its directory: %v", err)
	}
}
