package sweepd

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
)

// cacheLine builds a valid canonical cell-result line for cell (spill
// loads validate their content, so synthetic test lines must parse).
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

// TestCacheConcurrent hammers Put/Get/Stats from many goroutines over a
// cache small enough to evict constantly; run under -race (CI does) it
// guards the locking across both tiers.
func TestCacheConcurrent(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "memory"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			var c *Cache
			if disk {
				var err error
				if c, err = NewDiskCache(8, t.TempDir()); err != nil {
					t.Fatal(err)
				}
			} else {
				c = NewCache(8)
			}
			cells := dynamics.Grid([]float64{0.5, 1, 2}, []int{2, 4}, 4)
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
			if st.Hits == 0 || st.Misses == 0 {
				t.Fatalf("degenerate workload: %+v", st)
			}
		})
	}
}

// segmentPath is where kernel's spilled lines live under a cache dir.
func segmentPath(dir, kernel string) string {
	return filepath.Join(dir, kernel, segmentName)
}

// evictAll pushes every earlier entry out of c's memory tier, so the next
// Get of one must come from the disk tier.
func evictAll(c *Cache) {
	for i := 0; i < c.max; i++ {
		cell := dynamics.Cell{Alpha: 99, K: i, Seed: -1}
		c.PutMemory("filler", cell, cacheLine(cell))
	}
}

// TestDiskCacheSurvivesRestart is the persistence contract: a fresh cache
// opened over the same spill directory serves the previous process's
// entries as hits, however few of them its memory tier can hold.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewDiskCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	cells := dynamics.Grid([]float64{1, 2, 3}, []int{2, 4}, 1) // 6 cells > memory bound 4
	for _, cell := range cells {
		c1.Put("kern", cell, cacheLine(cell))
	}
	if st := c1.Stats(); st.Evictions == 0 {
		t.Fatalf("expected memory evictions, got %+v", st)
	}
	// Evicted entries are still served — from disk, promoted back.
	for _, cell := range cells {
		line, ok := c1.Get("kern", cell)
		if !ok || string(line) != string(cacheLine(cell)) {
			t.Fatalf("cell %+v lost after eviction", cell)
		}
	}
	if st := c1.Stats(); st.DiskHits == 0 {
		t.Fatalf("evicted entries not served from disk: %+v", st)
	}
	// One file per kernel, whatever the number of cells.
	if files, err := os.ReadDir(filepath.Join(dir, "kern")); err != nil || len(files) != 1 || files[0].Name() != segmentName {
		t.Fatalf("spill directory holds %v (%v), want only %s", files, err, segmentName)
	}

	// "Restart": a brand-new cache over the same directory is warm, beyond
	// what its memory tier holds.
	c2, err := NewDiskCache(2, dir)
	if err != nil {
		t.Fatal(err)
	}
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

	// A different kernel stays partitioned, and an unknown cell of a
	// known kernel misses.
	if _, ok := c2.Get("other", cells[0]); ok {
		t.Fatal("kernel hash must partition the disk tier")
	}
	if _, ok := c2.Get("kern", dynamics.Cell{Alpha: 9, K: 9, Seed: 9}); ok {
		t.Fatal("unknown cell served")
	}
}

// TestSegmentTornTailTruncated: a daemon killed mid-append leaves half a
// record at the end of a segment. The next process truncates it, serves
// every record before it, and appends after them.
func TestSegmentTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewDiskCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	cells := dynamics.Grid([]float64{1, 2, 3, 4}, []int{2}, 1)
	for _, cell := range cells[:3] {
		c1.Put("kern", cell, cacheLine(cell))
	}
	path := segmentPath(dir, "kern")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := cacheLine(cells[3])
	if err := os.WriteFile(path, append(whole[:len(whole):len(whole)], torn[:len(torn)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewDiskCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("kern", cells[3]); ok {
		t.Fatal("torn record served")
	}
	for _, cell := range cells[:3] {
		if line, ok := c2.Get("kern", cell); !ok || string(line) != string(cacheLine(cell)) {
			t.Fatalf("cell %+v before the torn tail lost", cell)
		}
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != string(whole) {
		t.Fatalf("segment after repair is %d bytes (%v), want the %d-byte whole-line prefix", len(data), err, len(whole))
	}
	c2.Put("kern", cells[3], cacheLine(cells[3]))

	c3, err := NewDiskCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cells {
		if line, ok := c3.Get("kern", cell); !ok || string(line) != string(cacheLine(cell)) {
			t.Fatalf("cell %+v lost after appending behind a repaired tail", cell)
		}
	}
}

// TestDiskCacheRejectsCorruptSpill: bytes in the middle of a segment that
// no longer decode, or that decode to another cell than the index says,
// are never served; the cell misses, its neighbours hit, and its next Put
// appends a fresh record.
func TestDiskCacheRejectsCorruptSpill(t *testing.T) {
	cells := dynamics.Grid([]float64{1, 2, 3}, []int{2}, 1)
	record := int64(len(cacheLine(cells[1])) + 1)
	for _, tc := range []struct {
		name    string
		with    []byte // overwrites the middle record, byte for byte
		restart bool   // a new process scans the damage; else a live index points at it
	}{
		{"undecodable, live index", []byte(strings.Repeat("#", int(record)-1)), false},
		{"undecodable, scanned", []byte(strings.Repeat("#", int(record)-1)), true},
		{"another cell's record, live index", cacheLine(cells[0]), false},
		{"another cell's record, scanned", cacheLine(cells[0]), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := NewDiskCache(2, dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, cell := range cells {
				c.Put("kern", cell, cacheLine(cell))
			}
			path := segmentPath(dir, "kern")
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(tc.with, record); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if tc.restart {
				if c, err = NewDiskCache(2, dir); err != nil {
					t.Fatal(err)
				}
			} else {
				evictAll(c)
			}

			if _, ok := c.Get("kern", cells[1]); ok {
				t.Fatal("corrupt record served as a hit")
			}
			for _, cell := range []dynamics.Cell{cells[0], cells[2]} {
				if line, ok := c.Get("kern", cell); !ok || string(line) != string(cacheLine(cell)) {
					t.Fatalf("neighbour %+v of a corrupt record lost", cell)
				}
			}
			c.Put("kern", cells[1], cacheLine(cells[1]))
			if fi, err := os.Stat(path); err != nil || fi.Size() != 4*record {
				t.Fatalf("segment after re-putting the dropped cell: %v bytes (%v), want %d", fi.Size(), err, 4*record)
			}
			evictAll(c)
			if line, ok := c.Get("kern", cells[1]); !ok || string(line) != string(cacheLine(cells[1])) {
				t.Fatal("fresh record not served")
			}
		})
	}
}

// TestSegmentConcurrentJobs: two jobs of one kernel finishing the same
// cells at once (and a reader) leave a segment that is a clean
// checkpoint with every cell in it exactly once. Run under -race.
func TestSegmentConcurrentJobs(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	cells := dynamics.Grid([]float64{0.5, 1, 2, 3}, []int{2, 3, 4, 5}, 8)
	var wg sync.WaitGroup
	for job := 0; job < 3; job++ {
		wg.Add(1)
		go func(job int) {
			defer wg.Done()
			for i := range cells {
				cell := cells[i]
				switch job {
				case 1:
					cell = cells[len(cells)-1-i]
					fallthrough
				case 0:
					c.Put("kern", cell, cacheLine(cell))
				default:
					if line, ok := c.Get("kern", cell); ok && string(line) != string(cacheLine(cell)) {
						t.Errorf("cell %+v served a foreign line", cell)
					}
				}
			}
		}(job)
	}
	wg.Wait()
	data, err := os.ReadFile(segmentPath(dir, "kern"))
	if err != nil {
		t.Fatal(err)
	}
	recs, clean := ncgio.DecodePrefix(data)
	if clean != len(data) || len(recs) != len(cells) {
		t.Fatalf("segment decodes to %d records over %d of %d bytes, want %d records and all of it",
			len(recs), clean, len(data), len(cells))
	}
	seen := make(map[dynamics.Cell]bool)
	for _, r := range recs {
		seen[r.Cell] = true
	}
	if len(seen) != len(cells) {
		t.Fatalf("segment holds %d distinct cells, want %d", len(seen), len(cells))
	}
}

// TestSegmentChurn drives more kernels than descriptors from several
// goroutines that spill, read back and remove them at once: whatever the
// interleaving of descriptor eviction and kernel removal, a hit carries
// the cell's own line. Run under -race.
func TestSegmentChurn(t *testing.T) {
	c, err := NewDiskCache(4, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := dynamics.Grid([]float64{1, 2}, []int{2, 3}, 2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				kernel := fmt.Sprintf("kern-%d", rng.Intn(maxOpenSegments+16))
				cell := cells[rng.Intn(len(cells))]
				switch op := rng.Intn(10); {
				case op == 0:
					c.RemoveKernel(kernel)
				case op < 5:
					c.Put(kernel, cell, cacheLine(cell))
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

// TestSegmentDescriptorsBounded: the disk tier holds at most
// maxOpenSegments descriptors however many kernels it spills for, and a
// segment closed to stay under the bound still serves.
func TestSegmentDescriptorsBounded(t *testing.T) {
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this platform")
		}
		return len(fds)
	}
	before := openFDs()
	c, err := NewDiskCache(4, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const kernels = 300
	cell := dynamics.Cell{Alpha: 1, K: 2, Seed: 3}
	for i := 0; i < kernels; i++ {
		c.Put(fmt.Sprintf("kern-%d", i), cell, cacheLine(cell))
	}
	for i := 0; i < kernels; i++ {
		if _, ok := c.Get(fmt.Sprintf("kern-%d", i), cell); !ok {
			t.Fatalf("kernel %d of %d lost its spilled cell", i, kernels)
		}
	}
	if st := c.Stats(); st.DiskHits < kernels-4 {
		t.Fatalf("reads did not reach the disk tier: %+v", st)
	}
	if grew := openFDs() - before; grew > maxOpenSegments {
		t.Fatalf("%d kernels hold %d descriptors, bound is %d", kernels, grew, maxOpenSegments)
	}
}

// TestCacheRemoveKernel: job GC removes a kernel's entries from both
// tiers and reports the spill bytes reclaimed — the segment, and any
// per-cell files an older daemon left beside it, which are never read —
// leaving other kernels untouched.
func TestCacheRemoveKernel(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(16, dir)
	if err != nil {
		t.Fatal(err)
	}
	cells := dynamics.Grid([]float64{1, 2}, []int{2}, 1)
	for _, cell := range cells {
		c.Put("k1", cell, cacheLine(cell))
		c.Put("k2", cell, cacheLine(cell))
	}
	old := dynamics.Cell{Alpha: 5, K: 2, Seed: 0}
	legacy := append(cacheLine(old), '\n')
	if err := os.WriteFile(filepath.Join(dir, "k1", "a4014000000000000-k2-s0.jsonl"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k1", old); ok {
		t.Fatal("a legacy per-cell file was read")
	}
	want := int64(len(legacy))
	for _, cell := range cells {
		want += int64(len(cacheLine(cell)) + 1)
	}
	if reclaimed := c.RemoveKernel("k1"); reclaimed != want {
		t.Fatalf("reclaimed = %d, want %d (segment + legacy file)", reclaimed, want)
	}
	if _, ok := c.Get("k1", cells[0]); ok {
		t.Fatal("removed kernel still served")
	}
	if _, err := os.Stat(filepath.Join(dir, "k1")); !os.IsNotExist(err) {
		t.Fatal("spill dir survived RemoveKernel")
	}
	if c.segs["k1"] != nil {
		t.Fatal("index survived RemoveKernel")
	}
	if _, ok := c.Get("k2", cells[0]); !ok {
		t.Fatal("unrelated kernel lost")
	}
	if n := c.RemoveKernel("k1"); n != 0 {
		t.Fatalf("double remove reclaimed %d bytes", n)
	}
	// The kernel can come back: a later job spills into a fresh segment.
	c.Put("k1", cells[0], cacheLine(cells[0]))
	evictAll(c)
	if _, ok := c.Get("k1", cells[0]); !ok {
		t.Fatal("kernel spilled after its removal not served from disk")
	}

	// A kernel directory found at boot and never touched is reaped too.
	c2, err := NewDiskCache(16, dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := c2.RemoveKernel("k2"); n <= 0 || c2.segs["k2"] != nil {
		t.Fatalf("untouched kernel: reclaimed %d bytes, segment %v", n, c2.segs["k2"])
	}

	// Memory-only cache: entries purge, no disk bytes to reclaim; a nil
	// cache is a no-op.
	mc := NewCache(4)
	mc.Put("k", cells[0], cacheLine(cells[0]))
	if n := mc.RemoveKernel("k"); n != 0 {
		t.Fatalf("memory-only remove reclaimed %d bytes", n)
	}
	if _, ok := mc.Get("k", cells[0]); ok {
		t.Fatal("memory tier survived RemoveKernel")
	}
	var nilCache *Cache
	if n := nilCache.RemoveKernel("k"); n != 0 {
		t.Fatal("nil cache reclaimed bytes")
	}
}
