package sweepd

import (
	"container/list"
	"maps"
	"os"
	"sync"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
)

// cacheKey addresses one cell result by content: the spec kernel hash
// (everything that determines the result except the grid) plus the cell
// coordinates. Jobs with overlapping grids and identical kernels hit the
// same entries.
type cacheKey struct {
	Kernel string
	Cell   dynamics.Cell
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// DiskHits counts the subset of Hits read from a retained job's
	// checkpoint and promoted into the memory tier.
	DiskHits uint64 `json:"disk_hits"`
}

// Cache is a bounded, concurrency-safe, content-addressed result cache.
// Values are cell-result lines, and a hit is appended to a checkpoint or
// streamed to a lease as it is, without a codec (Manager.sweepLines). The
// rule that makes that safe: every line in the cache was produced by this
// process's encoder or validated by its decoder (ncgio.UnmarshalCell: every
// check of a full decode, and only canonical bytes pass) on the way in. A
// line enters two ways — a computed cell, encoded once by sweepLines (Put);
// a line of a retained job's checkpoint, validated when Get reads it.
//
// The memory tier is an LRU of at most max lines. The disk tier holds no
// bytes of its own: it is an index, per kernel, from each cell to where a
// line of one of the kernel's retained checkpoints holds it. The manager
// puts every retained non-trajectory job's checkpoint in it (retain) and
// takes an evicted one out (release); a kernel's unread checkpoints are
// read on its next miss, and a runner's append adds its line (index). The
// cache writes no file: a line that a resume cut, a purge removed or
// anything else changed no longer decodes to its cell, so its read is a
// miss and its place is forgotten, never a wrong hit.
type Cache struct {
	mu        sync.Mutex
	max       int
	entries   map[cacheKey]*list.Element
	order     *list.List // front = most recently used
	disk      map[string]*kernelIndex
	hits      uint64
	misses    uint64
	evictions uint64
	diskHits  uint64
}

type cacheEntry struct {
	key  cacheKey
	line []byte
}

// kernelIndex is one kernel's disk tier: its retained checkpoints, by
// path, and for each cell one of them holds, where.
type kernelIndex struct {
	files map[string]*checkpoint
	cells map[dynamics.Cell]ref
}

// checkpoint is one retained job's results file; read is set once its
// lines are in the index, or on their way there.
type checkpoint struct {
	path string
	read bool
}

// ref places one line (without its newline) in a checkpoint.
type ref struct {
	ck  *checkpoint
	off int64
	n   int
}

// NewCache builds a cache holding at most max lines in memory (max ≤ 0
// disables caching: Get always misses, and Put and the index do nothing).
func NewCache(max int) *Cache {
	return &Cache{max: max, entries: make(map[cacheKey]*list.Element), order: list.New(),
		disk: make(map[string]*kernelIndex)}
}

// NewDiskCache is NewCache(max), and dir is not read: the disk tier is an
// index over the job checkpoints, which the manager feeds. It stays while
// bench/ calls it.
func NewDiskCache(max int, dir string) (*Cache, error) {
	return NewCache(max), nil
}

func (c *Cache) disabled() bool { return c == nil || c.max <= 0 }

// Get returns the cached line for (kernel, cell), if either tier holds
// it. A disk-tier hit promotes the line into the memory LRU.
func (c *Cache) Get(kernel string, cell dynamics.Cell) ([]byte, bool) {
	if c.disabled() {
		return nil, false
	}
	key := cacheKey{Kernel: kernel, Cell: cell}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		line := el.Value.(*cacheEntry).line
		c.mu.Unlock()
		return line, true
	}
	c.mu.Unlock()
	line, ok := c.readDisk(kernel, cell)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.diskHits++
	c.put(key, line)
	return line, true
}

// Put stores the canonical line for (kernel, cell) in the memory tier,
// evicting the least recently used entry when full. The line is not
// copied; callers must not mutate it afterwards.
func (c *Cache) Put(kernel string, cell dynamics.Cell, line []byte) {
	if c.disabled() {
		return
	}
	c.mu.Lock()
	c.put(cacheKey{Kernel: kernel, Cell: cell}, line)
	c.mu.Unlock()
}

// put is Put with c.mu held.
func (c *Cache) put(key cacheKey, line []byte) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).line = line
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, line: line})
	for len(c.entries) > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// retain puts path, the checkpoint of a retained job of kernel, in the
// disk index. Its lines are read on the kernel's next miss, unless read
// says there is nothing to read yet: a runner that starts on an empty
// checkpoint indexes every line it appends.
func (c *Cache) retain(kernel, path string, read bool) {
	if c.disabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.disk[kernel]
	if k == nil {
		k = &kernelIndex{files: make(map[string]*checkpoint), cells: make(map[dynamics.Cell]ref)}
		c.disk[kernel] = k
	}
	ck := k.files[path]
	if ck == nil {
		ck = &checkpoint{path: path}
		k.files[path] = ck
	}
	ck.read = ck.read || read
}

// index records that path holds cell's line, n bytes at off — when path's
// lines are in the index already; otherwise the kernel's next miss reads
// the line with the rest.
func (c *Cache) index(kernel, path string, cell dynamics.Cell, off int64, n int) {
	if c.disabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if k := c.disk[kernel]; k != nil {
		if ck := k.files[path]; ck != nil && ck.read {
			k.cells[cell] = ref{ck: ck, off: off, n: n}
		}
	}
}

// release takes path, an evicted job's checkpoint, out of kernel's disk
// index. With the kernel's last checkpoint go its memory entries too:
// determinism makes that safe, as a later job of the kernel recomputes.
func (c *Cache) release(kernel, path string) {
	if c.disabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.disk[kernel]
	if k == nil || k.files[path] == nil {
		return
	}
	ck := k.files[path]
	delete(k.files, path)
	if len(k.files) > 0 {
		maps.DeleteFunc(k.cells, func(_ dynamics.Cell, at ref) bool { return at.ck == ck })
		return
	}
	delete(c.disk, kernel)
	var next *list.Element
	for el := c.order.Front(); el != nil; el = next {
		next = el.Next()
		if ce := el.Value.(*cacheEntry); ce.key.Kernel == kernel {
			c.order.Remove(el)
			delete(c.entries, ce.key)
		}
	}
}

// readDisk reads cell's line from the checkpoint the kernel's index
// names, after reading into the index the kernel's checkpoints nobody has
// read yet. A kernel with no retained checkpoint, or a cell none of them
// holds, misses without a system call. Bytes that do not decode to a
// result of exactly this cell are never served: their ref is dropped.
func (c *Cache) readDisk(kernel string, cell dynamics.Cell) ([]byte, bool) {
	c.mu.Lock()
	k := c.disk[kernel]
	if k == nil {
		c.mu.Unlock()
		return nil, false
	}
	var unread []*checkpoint
	for _, ck := range k.files {
		if !ck.read {
			ck.read = true
			unread = append(unread, ck)
		}
	}
	c.mu.Unlock()
	for _, ck := range unread {
		found := make(map[dynamics.Cell]ref)
		data, _ := os.ReadFile(ck.path) // a missing checkpoint holds nothing
		for line, end := range ncgio.Lines(data) {
			if got, err := ncgio.UnmarshalCell(line); err == nil {
				found[got] = ref{ck: ck, off: int64(end - 1 - len(line)), n: len(line)}
			}
		}
		c.mu.Lock()
		if k.files[ck.path] == ck {
			maps.Copy(k.cells, found)
		}
		c.mu.Unlock()
	}

	c.mu.Lock()
	at, ok := k.cells[cell]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	line := make([]byte, at.n)
	f, err := os.Open(at.ck.path)
	if err == nil {
		_, err = f.ReadAt(line, at.off)
		f.Close() //nolint:errcheck // read-only
	}
	if err == nil {
		if got, derr := ncgio.UnmarshalCell(line); derr == nil && got == cell {
			return line, true
		}
	}
	c.mu.Lock()
	if k.cells[cell] == at {
		delete(k.cells, cell)
	}
	c.mu.Unlock()
	return nil, false
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		DiskHits:  c.diskHits,
	}
}
