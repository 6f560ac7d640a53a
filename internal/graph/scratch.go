package graph

import "sync"

// Scratch holds the reusable buffers of a traversal: an epoch-stamped
// visited array (so a fresh traversal never pays an O(n) clear), int32
// distances, and the queue. The zero value is ready to use and grows on
// demand. A Scratch is not safe for concurrent use; give each worker its
// own, or borrow one from the package pool with GetScratch.
//
// Distances are only meaningful for vertices visited by the most recent
// traversal; Dist converts unvisited vertices to Unreachable.
type Scratch struct {
	epoch uint32
	seen  []uint32
	dist  []int32
	queue []int32
}

// grow ensures capacity for n vertices. New seen entries start at zero,
// which is below any live epoch.
func (s *Scratch) grow(n int) {
	if n <= len(s.seen) {
		return
	}
	s.seen = append(make([]uint32, 0, n), s.seen...)[:n]
	s.dist = make([]int32, n)
	s.queue = make([]int32, n+1)
}

// begin starts a fresh traversal over n vertices: everything unvisited,
// nothing enqueued. Epoch wraparound (once per 2^32 traversals) forces a
// one-time clear so stale stamps can never alias a live epoch.
func (s *Scratch) begin(n int) {
	s.grow(n)
	s.epoch++
	if s.epoch == 0 {
		for i := range s.seen {
			s.seen[i] = 0
		}
		s.epoch = 1
	}
}

// visit stamps v with distance d and returns true when v was unvisited.
func (s *Scratch) visit(v int32, d int32) bool {
	if s.seen[v] == s.epoch {
		return false
	}
	s.seen[v] = s.epoch
	s.dist[v] = d
	return true
}

// bfs is the package's one breadth-first search; every public traversal
// is a wrapper that checks its arguments and calls it. It explores
// rows — Graph.adj or CSR.rows, one neighbour list per vertex — from
// every vertex of srcs (duplicates count once, none yields an empty
// traversal) out to distance k; a full search passes k = len(rows),
// which no distance reaches. It returns the visited vertices in BFS
// order — sources in the order given, then neighbours in row order,
// which decides local ids in views and hence every downstream tie-break
// — as a prefix of the scratch queue, valid until the next traversal.
// The caller has checked that every source indexes rows and k >= 0. The
// arc scan does not branch on what it reads: it writes w to the next
// queue slot, and sets dist[w] and advances only when w was unseen, so
// the queue has a spare slot past the n vertices for the last write.
func (s *Scratch) bfs(rows [][]int32, srcs []int32, k int) []int32 {
	s.begin(len(rows))
	tail := 0
	for _, v := range srcs {
		if s.visit(v, 0) {
			s.queue[tail] = v
			tail++
		}
	}
	seen, dist, queue, epoch := s.seen, s.dist, s.queue, s.epoch
	for head := 0; head < tail; head++ {
		u := queue[head]
		du := dist[u]
		if int(du) == k {
			continue
		}
		for _, w := range rows[u] {
			fresh := 0 // a SETcc, not a branch
			if seen[w] != epoch {
				fresh = 1
			}
			seen[w] = epoch
			dist[w] += int32(fresh) * (du + 1 - dist[w])
			queue[tail] = w
			tail += fresh
		}
	}
	return queue[:tail]
}

// Dist returns the distance recorded for v by the most recent traversal,
// or Unreachable when v was not visited.
func (s *Scratch) Dist(v int) int {
	if s.seen[v] != s.epoch {
		return Unreachable
	}
	return int(s.dist[v])
}

// scratchPool recycles Scratches for the wrappers that take none
// (Distances, Eccentricity, IsConnected, ...) so one-shot queries stay
// allocation-free after warm-up.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch borrows a Scratch sized for n vertices from the shared pool.
// Return it with PutScratch when done.
func GetScratch(n int) *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.grow(n)
	return s
}

// PutScratch returns a Scratch to the shared pool.
func PutScratch(s *Scratch) { scratchPool.Put(s) }
