package graph

import (
	"math/bits"
	"slices"
	"sync"
)

// PowerStep is the package's one all-pairs kernel: a level of the closed
// neighbourhood powers of a graph, as bit rows. prev holds level t — row j,
// words words long, is {i : d(j,i) <= t} — and next receives level t+1: row
// j of prev with the level-t row of every neighbour of j ORed in. That is
// 2m·words word-ORs a level, and a graph has diameter+1 distinct levels,
// where one breadth-first search per vertex costs n traversals. It reports
// whether any row gained a vertex; once none does, every later level
// equals prev.
//
// rows[j] lists the neighbours of vertex j — Graph.adj, CSR.rows, or the
// rows of a view — by id, and vertex j's own id is base+j: a view that
// leaves its center out numbers the rest from 1. Bit i of a row stands for
// the vertex with id base+i.
func PowerStep(rows [][]int32, base int32, words int, prev, next []uint64) bool {
	grew := false
	switch words {
	case 1:
		// At most 64 vertices, as in most local views: a row is a register.
		for j, nbrs := range rows {
			w := prev[j]
			for _, l := range nbrs {
				w |= prev[l-base]
			}
			next[j] = w
			grew = grew || w != prev[j]
		}
		return grew
	case 2:
		return powerStep2(rows, base, prev, next)
	}
	copy(next, prev)
	for j, nbrs := range rows {
		row := next[j*words : (j+1)*words]
		for _, l := range nbrs {
			for x, w := range prev[int(l-base)*words:][:words] {
				row[x] |= w
			}
		}
		grew = grew || !slices.Equal(row, prev[j*words:(j+1)*words])
	}
	return grew
}

// powerStep2 is PowerStep on rows of two words (at most 128 vertices): a
// row is a pair of registers. Inlined in PowerStep, it moved the general
// loop's code onto a 64-byte-line crossing that ran 16% slower.
func powerStep2(rows [][]int32, base int32, prev, next []uint64) bool {
	grew := false
	for j, nbrs := range rows {
		w0, w1 := prev[2*j], prev[2*j+1]
		for _, l := range nbrs {
			w0, w1 = w0|prev[2*(l-base)], w1|prev[2*(l-base)+1]
		}
		next[2*j], next[2*j+1] = w0, w1
		grew = grew || w0 != prev[2*j] || w1 != prev[2*j+1]
	}
	return grew
}

// PowerStats is what one pass over the powers of a whole graph reads off
// the popcount of every row at every level, and the buffers it runs on: a
// row that first holds all n vertices at level t belongs to a vertex of
// eccentricity t, a row that grows by c vertices at level t has c vertices
// at distance exactly t, and the popcount at level k is the size of the
// k-ball. Only two levels are alive at a time, so the slab is
// 2·n·⌈n/64⌉ words — 3.2 KB at n = 100, 25 MB at n = 10 000 — kept at its
// high-water mark like every other buffer here. The zero value is ready
// to use; borrow one from the package pool with GetPowerStats.
type PowerStats struct {
	// Ecc[v] is the eccentricity of v, or Unreachable when v's component
	// is not the whole graph.
	Ecc []int
	// Sum[v] is the status of v: the sum of its distances to every other
	// vertex, each one outside v's component contributing Unreachable.
	Sum []int
	// Ball[v] is the number of vertices within distance k of v, v included.
	Ball []int

	cnt  []int // popcount of v's row at the level last read
	slab []uint64
}

// PowerStats fills ps with the eccentricity, the status and the k-ball
// size of every vertex of g, on the calling goroutine.
func (g *Graph) PowerStats(k int, ps *PowerStats) {
	if k < 0 {
		panic("graph: negative radius")
	}
	n := g.n
	words := (n + 63) / 64
	stride := n * words
	ps.Ecc = slices.Grow(ps.Ecc[:0], n)[:n]
	ps.Sum = slices.Grow(ps.Sum[:0], n)[:n]
	ps.Ball = slices.Grow(ps.Ball[:0], n)[:n]
	ps.cnt = slices.Grow(ps.cnt[:0], n)[:n]
	ps.slab = slices.Grow(ps.slab[:0], 2*stride)[:2*stride]
	prev, next := ps.slab[:stride], ps.slab[stride:]
	clear(prev)
	for v := 0; v < n; v++ {
		prev[v*words+v/64] = 1 << (v % 64)
		ps.Ecc[v], ps.Sum[v], ps.Ball[v], ps.cnt[v] = Unreachable, 0, 1, 1
	}
	if n == 1 {
		ps.Ecc[0] = 0
	}
	for t := 1; PowerStep(g.adj, 0, words, prev, next); t++ {
		for v := 0; v < n; v++ {
			c := 0
			for _, w := range next[v*words : (v+1)*words] {
				c += bits.OnesCount64(w)
			}
			if c == ps.cnt[v] {
				continue
			}
			ps.Sum[v] += t * (c - ps.cnt[v])
			ps.cnt[v] = c
			if c == n {
				ps.Ecc[v] = t
			}
			if t <= k {
				ps.Ball[v] = c
			}
		}
		prev, next = next, prev
	}
	for v, c := range ps.cnt {
		ps.Sum[v] += (n - c) * Unreachable
	}
}

// powerStatsPool recycles PowerStats the way scratchPool recycles
// Scratches: a run of the dynamics borrows one for its statistics passes.
var powerStatsPool = sync.Pool{New: func() any { return new(PowerStats) }}

// GetPowerStats borrows a PowerStats from the shared pool. Return it with
// PutPowerStats when done.
func GetPowerStats() *PowerStats { return powerStatsPool.Get().(*PowerStats) }

// PutPowerStats returns a PowerStats to the shared pool.
func PutPowerStats(ps *PowerStats) { powerStatsPool.Put(ps) }

// AllEccentricities returns the eccentricity of every vertex, indexed by
// vertex id, from one pass over the powers of g.
func (g *Graph) AllEccentricities() []int {
	var ps PowerStats
	g.PowerStats(0, &ps)
	return ps.Ecc
}

// AllSumDistances returns the status (sum of distances) of every vertex,
// indexed by vertex id, from one pass over the powers of g.
func (g *Graph) AllSumDistances() []int {
	var ps PowerStats
	g.PowerStats(0, &ps)
	return ps.Sum
}
