package sweepd

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
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
	// DiskHits counts the subset of Hits served by promoting a spilled
	// record into the memory tier (always 0 for a memory-only cache).
	DiskHits uint64 `json:"disk_hits"`
	// Coalesced counts computations avoided by in-flight dedup: a sweep
	// that found another sweep already computing the same (kernel, cell)
	// joined that flight instead of recomputing.
	Coalesced uint64 `json:"coalesced"`
}

// Cache is a bounded, concurrency-safe, content-addressed result cache.
// Values are cell-result lines, and a hit is appended to a checkpoint or
// streamed to a lease as it is, without a codec (Manager.sweepLines). The
// rule that makes that safe: every line in the cache was produced by this
// process's encoder or validated by its decoder (ncgio.UnmarshalCell: every
// check of a full decode, and only canonical bytes pass) on the way in. A
// line enters three ways — a computed cell, encoded once by sweepLines
// (Put, PutMemory); a line of a job's own checkpoint, validated by
// Spec.canonicalPrefix when the job resumes (Put); a line an earlier
// process spilled, validated by loadSpill when Get promotes it. Eviction
// is LRU.
//
// A cache built with NewDiskCache additionally spills every entry by
// appending it to its kernel's segment (<dir>/<kernel>/segment.jsonl, a
// file in checkpoint format): the memory LRU bounds the hot tier, while
// the spill tier persists across restarts, so a daemon reopened over the
// same directory keeps its hit rate instead of lazily re-warming from
// whichever checkpoints it happens to re-read. Entries evicted from
// memory remain on disk and are promoted back on their next Get.
type Cache struct {
	mu  sync.Mutex
	max int
	dir string // spill directory; "" = memory-only
	// segs holds one segment per kernel directory under dir, so a kernel
	// with nothing on disk misses without a system call; opened lists the
	// segments holding a descriptor, longest-open first.
	segs      map[string]*segment
	opened    *list.List
	entries   map[cacheKey]*list.Element
	order     *list.List // front = most recently used
	hits      uint64
	misses    uint64
	evictions uint64
	diskHits  uint64
	coalesced uint64
	// flights tracks in-progress computations for singleflight-style
	// coalescing across concurrent sweeps (see dedupExecutor): the first
	// sweep to reach a (kernel, cell) leads its flight, later arrivals
	// wait on it instead of recomputing.
	flights map[cacheKey]*flight
}

// flight is one in-progress (kernel, cell) computation. The leader fills
// res/ok and closes done exactly once (land); waiters read res only after
// done is closed. ok=false means the leader was canceled before finishing
// — joiners must compute the cell themselves.
type flight struct {
	done chan struct{}
	res  dynamics.Result
	ok   bool
}

type cacheEntry struct {
	key  cacheKey
	line []byte
}

// NewCache builds a memory-only cache holding at most max entries
// (max ≤ 0 disables caching: Get always misses, Put is a no-op).
func NewCache(max int) *Cache {
	return &Cache{max: max, entries: make(map[cacheKey]*list.Element), order: list.New()}
}

// NewDiskCache builds a cache whose entries spill to per-kernel segments
// under dir. The max bound applies to the in-memory tier only; a segment
// persists until job GC or a purge evicts the last retained job of its
// kernel (RemoveKernel). max ≤ 0 still disables the cache entirely, disk
// tier included.
func NewDiskCache(max int, dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweepd: cache dir: %w", err)
	}
	kernels, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sweepd: cache dir: %w", err)
	}
	c := NewCache(max)
	c.dir = dir
	c.segs = make(map[string]*segment, len(kernels))
	c.opened = list.New()
	for _, k := range kernels {
		if k.IsDir() {
			c.segs[k.Name()] = &segment{path: filepath.Join(dir, k.Name(), segmentName)}
		}
	}
	return c, nil
}

// Get returns the cached line for (kernel, cell), if present in either
// tier. A disk-tier hit promotes the entry into the memory LRU.
func (c *Cache) Get(kernel string, cell dynamics.Cell) ([]byte, bool) {
	if c == nil || c.max <= 0 {
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
	if line, ok := c.loadSpill(kernel, cell); ok {
		c.put(key, line, false) // promote; already on disk
		c.mu.Lock()
		c.hits++
		c.diskHits++
		c.mu.Unlock()
		return line, true
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores the canonical line for (kernel, cell), evicting the least
// recently used memory entry when full and spilling to disk when the
// cache is disk-backed. The line is not copied; callers must not mutate
// it afterwards.
func (c *Cache) Put(kernel string, cell dynamics.Cell, line []byte) {
	if c == nil || c.max <= 0 {
		return
	}
	c.put(cacheKey{Kernel: kernel, Cell: cell}, line, true)
}

// PutMemory stores the line in the memory tier only, leaving the disk
// spill tier untouched. Lease service uses this: a leased kernel may
// belong to no local job, so a segment written for it would never be
// reclaimed by job GC (RemoveKernel only runs on eviction) — the memory
// LRU bounds follower warmth instead.
func (c *Cache) PutMemory(kernel string, cell dynamics.Cell, line []byte) {
	if c == nil || c.max <= 0 {
		return
	}
	c.put(cacheKey{Kernel: kernel, Cell: cell}, line, false)
}

func (c *Cache) put(key cacheKey, line []byte, spill bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		// Deterministic per-cell seeding means an update carries the same
		// bytes as the original; no need to re-spill.
		el.Value.(*cacheEntry).line = line
		c.order.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, line: line})
	for len(c.entries) > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.mu.Unlock()
	if spill && c.dir != "" {
		c.spill(key.Kernel, key.Cell, line)
	}
}

// enabled reports whether the cache participates at all (a nil cache or
// max ≤ 0 disables both tiers and in-flight dedup).
func (c *Cache) enabled() bool { return c != nil && c.max > 0 }

// lead registers the caller as the computer of key if nobody else is
// in flight. leader=true: the caller owns the flight and must land it
// (with a result, or abandoned) exactly once. leader=false: the caller
// may wait on the returned flight's done channel instead of computing.
func (c *Cache) lead(key cacheKey) (*flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fl, ok := c.flights[key]; ok {
		c.coalesced++
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	if c.flights == nil {
		c.flights = make(map[cacheKey]*flight)
	}
	c.flights[key] = fl
	return fl, true
}

// land completes a flight the caller leads: ok=true publishes res to all
// waiters, ok=false abandons it (waiters recompute). The registry slot is
// freed either way, so a later sweep starts a fresh flight.
func (c *Cache) land(key cacheKey, fl *flight, res dynamics.Result, ok bool) {
	c.mu.Lock()
	if c.flights[key] == fl {
		delete(c.flights, key)
	}
	c.mu.Unlock()
	fl.res, fl.ok = res, ok
	close(fl.done)
}

// RemoveKernel drops every entry for kernel from both tiers and deletes
// the kernel's spill directory — its segment, and whatever per-cell files
// an older daemon left there — returning the number of bytes reclaimed
// from disk. Job GC calls this when the last retained job using a kernel
// is evicted; determinism makes the removal safe — a future job with the
// same kernel simply recomputes.
func (c *Cache) RemoveKernel(kernel string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	var next *list.Element
	for el := c.order.Front(); el != nil; el = next {
		next = el.Next()
		ce := el.Value.(*cacheEntry)
		if ce.key.Kernel == kernel {
			c.order.Remove(el)
			delete(c.entries, ce.key)
		}
	}
	c.mu.Unlock()
	// Every kernel directory has a segment: NewDiskCache registers the
	// ones it finds, spill the ones it creates (a memory-only cache has
	// neither).
	s := c.lockSegment(kernel, false)
	if s == nil {
		return 0
	}
	// The segment stays registered, locked and dead until its directory is
	// gone: a concurrent Put of the same kernel waits on the lock, then
	// starts a fresh segment in a fresh directory.
	s.dead, s.index = true, nil
	s.closeFile()
	var reclaimed int64
	kdir := filepath.Dir(s.path)
	if entries, err := os.ReadDir(kdir); err == nil {
		for _, e := range entries {
			if info, err := e.Info(); err == nil {
				reclaimed += info.Size()
			}
		}
		if os.RemoveAll(kdir) != nil {
			reclaimed = 0
		}
	}
	c.mu.Lock()
	delete(c.segs, kernel)
	if s.opened != nil {
		c.opened.Remove(s.opened)
		s.opened = nil
	}
	c.mu.Unlock()
	s.mu.Unlock()
	return reclaimed
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
		Coalesced: c.coalesced,
	}
}

// segmentName is the one file of a kernel's spill directory.
const segmentName = "segment.jsonl"

// maxOpenSegments bounds the descriptors the disk tier keeps open, however
// many kernels the daemon retains: opening one more closes the segment
// that has been open longest, which reopens on its next use.
const maxOpenSegments = 64

// segment is the disk tier of one kernel: an append-only file of
// canonical lines, each followed by '\n' — a checkpoint in any cell
// order, duplicates benign — and an index from cell to the line's
// place in it. The index costs memory in proportion to the cells
// spilled for kernels the daemon still retains.
type segment struct {
	mu   sync.Mutex
	path string
	// index is nil until the first touch in this process scans the file.
	index map[dynamics.Cell]span
	size  int64    // append offset: the length of the whole-line prefix
	f     *os.File // nil while closed
	buf   []byte   // line + '\n', reused across appends
	dead  bool     // RemoveKernel took the segment; look it up again
	// opened is the segment's place in Cache.opened (guarded by Cache.mu).
	opened *list.Element
}

// span places one line (without its newline) in a segment file.
type span struct {
	off int64
	n   int
}

// lockSegment returns kernel's segment, locked. A kernel with no spill
// directory gets a segment only when create is set; otherwise the result
// is nil and nothing is locked.
func (c *Cache) lockSegment(kernel string, create bool) *segment {
	for {
		c.mu.Lock()
		s := c.segs[kernel]
		if s == nil && create {
			s = &segment{
				path:  filepath.Join(c.dir, kernel, segmentName),
				index: make(map[dynamics.Cell]span),
			}
			c.segs[kernel] = s
		}
		c.mu.Unlock()
		if s == nil {
			return nil
		}
		s.mu.Lock()
		if !s.dead {
			return s
		}
		s.mu.Unlock()
	}
}

// load builds, on the segment's first touch in this process, the index of
// what an earlier process left: the tail a crash tore is truncated, and
// every record (ncgio.Lines) is keyed by the cell it names and placed
// where spill writes one, directly before its newline. A line that does
// not decode is skipped — its cell misses and is spilled again; a padded
// one, or one that decodes to the wrong thing, fails a hit's validation.
func (s *segment) load() {
	if s.index != nil {
		return
	}
	s.index = make(map[dynamics.Cell]span)
	if ncgio.RepairTail(s.path) != nil {
		return
	}
	data, err := os.ReadFile(s.path)
	if err != nil {
		return // no segment yet (a directory of legacy per-cell files)
	}
	for line, end := range ncgio.Lines(data) {
		if cell, err := ncgio.UnmarshalCell(line); err == nil {
			s.index[cell] = span{off: int64(end - 1 - len(line)), n: len(line)}
		}
	}
	s.size = int64(len(data))
}

// file returns s's descriptor, opening it (and, for a kernel's first
// spill, creating its directory) when s holds none. A newly opened
// segment joins c.opened; past maxOpenSegments the longest-open one
// leaves the list and is handed back, for the caller to release once it
// has unlocked s — segment locks never nest.
func (c *Cache) file(s *segment) (f *os.File, evicted *segment) {
	if s.f != nil {
		return s.f, nil
	}
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_CREATE, 0o644)
	if os.IsNotExist(err) && os.MkdirAll(filepath.Dir(s.path), 0o755) == nil {
		f, err = os.OpenFile(s.path, os.O_RDWR|os.O_CREATE, 0o644)
	}
	if err != nil {
		return nil, nil
	}
	s.f = f
	c.mu.Lock()
	s.opened = c.opened.PushBack(s)
	if c.opened.Len() > maxOpenSegments {
		evicted = c.opened.Remove(c.opened.Front()).(*segment)
		evicted.opened = nil
	}
	c.mu.Unlock()
	return f, evicted
}

// release closes the descriptor of a segment file() evicted (nil: none).
func (s *segment) release() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.closeFile()
	s.mu.Unlock()
}

func (s *segment) closeFile() {
	if s.f != nil {
		s.f.Close() //nolint:errcheck // spilling is best-effort and un-fsynced
		s.f = nil
	}
}

// spill appends one entry to its kernel's segment: one write at the
// tracked end of the file, so a failed or short write is overwritten by
// the next append instead of tearing the middle of the segment, and a
// daemon killed mid-write leaves a tail the next load truncates. A cell
// the segment already holds (a checkpoint re-read on resume, a promoted
// entry evicted and recomputed) is not written again. Spilling is
// best-effort — on any error the memory tier still holds the line.
func (c *Cache) spill(kernel string, cell dynamics.Cell, line []byte) {
	s := c.lockSegment(kernel, true)
	s.load()
	var evicted *segment
	if _, ok := s.index[cell]; !ok {
		var f *os.File
		if f, evicted = c.file(s); f != nil {
			s.buf = append(append(s.buf[:0], line...), '\n')
			if _, err := f.WriteAt(s.buf, s.size); err == nil {
				s.index[cell] = span{off: s.size, n: len(line)}
				s.size += int64(len(s.buf))
			}
		}
	}
	s.mu.Unlock()
	evicted.release()
}

// loadSpill reads and validates one spilled line. A cell the index does
// not hold misses without touching the disk. Bytes that do not decode to
// a result of exactly this cell — external corruption, or an index that
// no longer describes the file — are never served: the entry is dropped,
// so the cell's next Put appends a fresh record.
func (c *Cache) loadSpill(kernel string, cell dynamics.Cell) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	s := c.lockSegment(kernel, false)
	if s == nil {
		return nil, false
	}
	s.load()
	at, ok := s.index[cell]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	line := make([]byte, at.n)
	f, evicted := c.file(s)
	read := f != nil
	if read {
		_, err := f.ReadAt(line, at.off)
		read = err == nil
	}
	s.mu.Unlock()
	evicted.release()
	if read {
		if got, err := ncgio.UnmarshalCell(line); err == nil && got == cell {
			return line, true
		}
	}
	s.mu.Lock()
	if s.index[cell] == at {
		delete(s.index, cell)
	}
	s.mu.Unlock()
	return nil, false
}
