// Package mds solves the (constrained) MINIMUM DOMINATING SET problem that
// the paper's best-response computation reduces to (§5.3). The paper used
// the Gurobi ILP solver; this package substitutes an exact branch-and-bound
// search over bitset-encoded closed neighborhoods with a greedy warm
// start. This comment is the record of that substitution.
//
// A set S dominates graph G when every vertex is in S or adjacent to a
// vertex of S. The constrained variant starts from a set of forced
// vertices that are already in the solution for free; the solver minimizes
// only the number of additional vertices.
//
// All entry points run on a Solver, which owns every buffer a solve
// needs. The package-level functions borrow one from a pool and return a
// fresh copy of its result; a caller that solves in a loop (the
// best-response scan) holds its own Solver and allocates nothing.
//
// A solve runs under a cap and most of the scan's solves are refusals — no
// set below the cap exists — so a solve tries its proofs cheapest first:
// the two lower bounds of the search root against the cap, then the greedy
// warm start, then the branch-and-bound. What a solve proved is kept
// (Solver.Proved), so the scan can carry it to levels where the
// neighborhoods are smaller and the optimum can only be larger.
// Most solves expand a node or two, so their time is passes over the rows,
// which sit in one slab: a pass reads a row of one or two words as
// registers, and a solve passes over its rows once at its root.
package mds

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/graph"
)

// The helpers below treat a []uint64 as a fixed-capacity set of vertex
// ids; operands of one call have equal length.

func setBit(b []uint64, i int)      { b[i/64] |= 1 << (i % 64) }
func hasBit(b []uint64, i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// popcount returns the number of set bits.
func popcount(b []uint64) int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// first returns the lowest vertex id in b, or -1 when b is empty.
func first(b []uint64) int {
	for i, w := range b {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// resize returns s with length n, reallocating only when it must grow.
// The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// nodeBudget bounds the branch-and-bound search tree. The budget is far
// above what any experiment-scale instance needs; when it is exhausted the
// solver returns its greedy-seeded incumbent, which is still a valid
// dominating set but no longer certified minimum (Proved reports 0). It is
// a variable only so that a test can exhaust it; nothing else assigns it.
var nodeBudget = 4 << 20

// Solver is the reusable state of the dominating-set search: the bitsets,
// stacks and per-vertex tables of one solve, kept so that the next solve
// allocates nothing. The zero value is ready to use; instances of any size
// may follow each other. A Solver is not safe for concurrent use.
type Solver struct {
	slab  []uint64 // the caller's closed neighborhoods, row v at v*words; read, never written
	words int

	full    []uint64 // every vertex id below n
	forced  []uint64
	uncov   []uint64 // full minus covered at the node being expanded
	blocked []uint64 // packingBound's scratch
	covered []uint64 // one row per search depth, grown on demand
	size    []int    // |N[v]|, for pickBranchVertex
	gains   []int    // gain of every vertex at the node being expanded (the root's until search leaves it)
	picks   []int    // gains at greedy's later picks
	cand    []int    // candidate lists of the nodes on the current path
	chosen  []int    // the current path's selection; empty between solves, like cand

	best      []int // incumbent; meaningful only while found
	found     bool
	bestSize  int  // strict size bound for further solutions
	rootBound int  // the root's lowerBound; its pass left gains and size
	nodes     int  // search nodes expanded
	proved    int  // see Proved
	cutOff    bool // see Exhausted

	graphSlab []uint64 // the package-level entry points' rows, reused too
}

var solverPool = sync.Pool{New: func() any { return new(Solver) }}

// MinDominatingExtraAtMost returns a minimum-cardinality set S of vertices
// such that forced ∪ S dominates g, when one of size strictly below limit
// exists, and ok=false otherwise. The result excludes forced vertices and
// is exact. forced may be nil or empty, making S a minimum dominating set
// of g, and a limit of g.N()+1 always succeeds. Callers that merely need
// "is there a dominating set cheaper than my incumbent?" (the
// best-response loop) use the cap to skip proving optimality of solutions
// they would discard anyway.
func MinDominatingExtraAtMost(g *graph.Graph, forced []int, limit int) ([]int, bool) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	set, ok := s.Solve(g.N(), s.closedNeighborhoods(g), forced, limit)
	return slices.Clone(set), ok
}

// MinDominatingExtraAtMostBitsets is MinDominatingExtraAtMost for callers
// that already hold the closed neighborhoods of the (implicit) graph as
// bitsets: nbs[v] must contain bit v plus every vertex v dominates, packed
// in (n+63)/64 uint64 words. The best-response hot path builds these
// directly as neighborhood powers instead of materializing power graphs.
// The rows are copied into one slab; the search is the graph entry point's,
// so identical neighborhoods yield identical solutions.
func MinDominatingExtraAtMostBitsets(n int, nbs [][]uint64, forced []int, limit int) ([]int, bool) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	s.graphSlab = s.graphSlab[:0]
	for _, nb := range nbs[:n] {
		s.graphSlab = append(s.graphSlab, nb[:(n+63)/64]...)
	}
	set, ok := s.Solve(n, s.graphSlab, forced, limit)
	return slices.Clone(set), ok
}

// closedNeighborhoods returns the slab of N[v] = {v} ∪ N(v), held by s.
func (s *Solver) closedNeighborhoods(g *graph.Graph) []uint64 {
	n := g.N()
	words := (n + 63) / 64
	s.graphSlab = resize(s.graphSlab, n*words)
	clear(s.graphSlab)
	for v := range n {
		nb := s.graphSlab[v*words : (v+1)*words]
		setBit(nb, v)
		for _, w := range g.Neighbors(v) {
			setBit(nb, int(w))
		}
	}
	return s.graphSlab
}

// Solve is MinDominatingExtraAtMostBitsets on s's buffers, with N[v] read
// from slab[v·w : (v+1)·w], w = ⌈n/64⌉. The returned slice belongs to s
// and is overwritten by its next solve, also one that fails.
//
// The root's two lower bounds are tried against limit itself before the
// greedy warm start and the search. A root bound that already needs limit
// picks is exactly the case where the warm start would give up and the
// search would stop at its first node, so the early return changes neither
// the answer nor the node count (it reports that one node). Greedy's first
// pick and the search's root read the gains and bounds of that one pass.
func (s *Solver) Solve(n int, slab []uint64, forced []int, limit int) ([]int, bool) {
	s.nodes, s.proved, s.cutOff = 0, 0, false
	if n == 0 {
		return nil, limit > 0
	}
	if limit <= 0 {
		return nil, false
	}
	s.reset(n, slab, forced)
	if first(s.uncov) == -1 {
		return []int{}, true
	}
	if s.rootBound = s.lowerBound(s.size, limit); s.rootBound >= limit {
		s.nodes, s.proved = 1, limit
		return nil, false
	}
	// Greedy warm start tightens the bound when it beats the cap.
	s.bestSize = limit
	if s.found = s.greedyExtra(limit); s.found {
		s.bestSize = len(s.best)
	}
	s.search(s.row(0))
	// A search cut off by nodeBudget certifies nothing: its incumbent is a
	// dominating set, but a smaller one may exist in what it never visited.
	if s.cutOff = s.nodes >= nodeBudget; !s.cutOff {
		s.proved = s.bestSize
	}
	if !s.found {
		return nil, false
	}
	return s.best, true
}

// lowerBound fills gains (and size unless nil) at uncov and returns the
// larger of two bounds on the picks still needed, or the first if it
// reaches limit: a pick covers at most maxGain uncovered vertices, and
// uncovered vertices with pairwise disjoint closed neighborhoods each need
// their own (packingBound, much tighter on paths, cycles and tori).
func (s *Solver) lowerBound(size []int, limit int) int {
	maxGain := s.fillGains(s.gains, size)
	need := (popcount(s.uncov) + maxGain - 1) / maxGain
	if need >= limit {
		return need
	}
	return max(need, s.packingBound())
}

// fillGains writes |N[v] ∩ uncov| to out[v], and |N[v]| to size[v] unless
// size is nil, and returns the largest gain or 1. Rows of one or two words
// are read into registers.
func (s *Solver) fillGains(out, size []int) int {
	maxGain := 1
	switch s.words {
	case 1:
		u := s.uncov[0]
		for v, w := range s.slab[:len(out)] {
			out[v] = bits.OnesCount64(w & u)
			maxGain = max(maxGain, out[v])
			if size != nil {
				size[v] = bits.OnesCount64(w)
			}
		}
	case 2:
		u0, u1 := s.uncov[0], s.uncov[1]
		rows := s.slab[:2*len(out)]
		for v := range out {
			w0, w1 := rows[2*v], rows[2*v+1]
			out[v] = bits.OnesCount64(w0&u0) + bits.OnesCount64(w1&u1)
			maxGain = max(maxGain, out[v])
			if size != nil {
				size[v] = bits.OnesCount64(w0) + bits.OnesCount64(w1)
			}
		}
	default:
		for v := range out {
			out[v] = 0
			for i, w := range s.nb(v) {
				out[v] += bits.OnesCount64(w & s.uncov[i])
			}
			maxGain = max(maxGain, out[v])
			if size != nil {
				size[v] = popcount(s.nb(v))
			}
		}
	}
	return maxGain
}

// nb returns row v of the slab, N[v].
func (s *Solver) nb(v int) []uint64 { return s.slab[v*s.words : (v+1)*s.words] }

// Nodes returns the number of search nodes the last Solve expanded.
func (s *Solver) Nodes() int { return s.nodes }

// Proved returns the lower bound the last Solve certified: no set smaller
// than Proved() extends forced to a dominating set. That is the optimum's
// size after a successful solve and limit after a refusal — and 0, nothing,
// when the search ran out of nodeBudget before it had seen every branch.
func (s *Solver) Proved() int { return s.proved }

// Exhausted reports whether the last Solve's search ended on nodeBudget:
// what it returned is then a dominating set (or a refusal) that nothing
// certifies, and a caller that promises exact answers has to say so.
func (s *Solver) Exhausted() bool { return s.cutOff }

// reset sizes the buffers for an n-vertex instance and leaves row 0 of
// covered holding what forced dominates, uncov its complement.
func (s *Solver) reset(n int, slab []uint64, forced []int) {
	words := (n + 63) / 64
	s.slab, s.words = slab[:n*words], words
	s.full = resize(s.full, words)
	s.forced = resize(s.forced, words)
	s.uncov = resize(s.uncov, words)
	s.blocked = resize(s.blocked, words)
	s.size = resize(s.size, n)
	s.gains = resize(s.gains, n)
	s.picks = resize(s.picks, n)
	for i := range s.full {
		s.full[i] = ^uint64(0)
	}
	if n%64 != 0 {
		s.full[words-1] = 1<<(n%64) - 1
	}
	clear(s.forced)
	s.covered = s.covered[:0]
	covered := s.row(0)
	clear(covered)
	for _, f := range forced {
		setBit(s.forced, f)
		for i, w := range s.nb(f) {
			covered[i] |= w
		}
	}
	s.setUncovered(covered)
}

// row returns depth d's covered bitset, extending the slab when the
// search first gets that deep. Rows handed out earlier stay valid: a node
// only reads its own row and writes its children's.
func (s *Solver) row(d int) []uint64 {
	words := len(s.full)
	if need := (d + 1) * words; need > len(s.covered) {
		s.covered = append(s.covered, make([]uint64, need-len(s.covered))...)
	}
	return s.covered[d*words : (d+1)*words]
}

// setUncovered points uncov at the complement of covered.
func (s *Solver) setUncovered(covered []uint64) {
	for i, f := range s.full {
		s.uncov[i] = f &^ covered[i]
	}
}

// greedyExtra fills best by repeatedly picking the vertex that covers the
// most uncovered vertices, starting from row 0 and the root's gains. It
// gives up, reporting false, as soon as the set can no longer stay below
// limit: such a warm start would be discarded anyway.
func (s *Solver) greedyExtra(limit int) bool {
	// The search has not started, so depth 1's row is free to consume.
	covered := s.row(1)
	copy(covered, s.row(0))
	s.best = s.best[:0]
	gains := s.gains
	for {
		s.setUncovered(covered)
		u := first(s.uncov)
		if u == -1 {
			return true
		}
		if len(s.best)+1 >= limit {
			return false
		}
		if len(s.best) > 0 {
			s.fillGains(s.picks, nil)
			gains = s.picks
		}
		bestV, bestGain := u, 0 // isolated uncovered vertices cover only themselves
		for v, g := range gains {
			if g > bestGain && !hasBit(s.forced, v) {
				bestGain, bestV = g, v
			}
		}
		s.best = append(s.best, bestV)
		for i, w := range s.nb(bestV) {
			covered[i] |= w
		}
	}
}

// search explores selections in a branch-and-bound over "which vertex
// covers the branching vertex": only vertices in N[u] can cover u, so
// branching on them is complete. The branching vertex is the uncovered
// vertex with the fewest coverers, which minimizes the branching factor.
// covered is row len(chosen).
func (s *Solver) search(covered []uint64) {
	if len(s.chosen) >= s.bestSize || s.nodes >= nodeBudget {
		return // cannot improve (or out of budget)
	}
	s.nodes++
	s.setUncovered(covered)
	u := s.pickBranchVertex()
	if u == -1 {
		s.best = append(s.best[:0], s.chosen...)
		s.found = true
		s.bestSize = len(s.chosen)
		return
	}
	bound := s.rootBound // at the root, Solve's root pass left it and the gains
	if len(s.chosen) > 0 {
		bound = s.lowerBound(nil, s.bestSize-len(s.chosen))
	}
	if len(s.chosen)+bound >= s.bestSize {
		return
	}
	// Branch over the candidates that can cover u, best gain first (ties
	// by vertex id: the insertion sort is stable).
	base := len(s.cand)
	for i, w := range s.nb(u) {
		for w &= s.full[i]; w != 0; w &= w - 1 {
			s.cand = append(s.cand, i*64+bits.TrailingZeros64(w))
		}
	}
	top := len(s.cand)
	for i := base + 1; i < top; i++ {
		for j := i; j > base && s.gains[s.cand[j]] > s.gains[s.cand[j-1]]; j-- {
			s.cand[j], s.cand[j-1] = s.cand[j-1], s.cand[j]
		}
	}
	next := s.row(len(s.chosen) + 1)
	for i := base; i < top; i++ {
		c := s.cand[i]
		for x, w := range s.nb(c) {
			next[x] = w | covered[x]
		}
		s.chosen = append(s.chosen, c)
		s.search(next)
		s.chosen = s.chosen[:len(s.chosen)-1]
	}
	s.cand = s.cand[:base]
}

// packingBound greedily collects uncovered vertices with pairwise
// disjoint closed neighborhoods; any dominating set needs one distinct
// vertex per member, so the count lower-bounds the remaining picks. (A
// vertex w covers v iff w ∈ N[v], so two packed vertices share no coverer
// exactly when their closed neighborhoods are disjoint.)
func (s *Solver) packingBound() int {
	clear(s.blocked)
	count := 0
	for i, w := range s.uncov {
	vertices:
		for ; w != 0; w &= w - 1 {
			nb := s.nb(i*64 + bits.TrailingZeros64(w))
			for x, b := range s.blocked[:len(nb)] {
				if nb[x]&b != 0 {
					continue vertices
				}
			}
			count++
			for x, b := range nb {
				s.blocked[x] |= b
			}
		}
	}
	return count
}

// pickBranchVertex returns the uncovered vertex with the smallest closed
// neighborhood (fewest possible coverers), or -1 when all are covered.
func (s *Solver) pickBranchVertex() int {
	best, bestSize := -1, 1<<30
	for i, w := range s.uncov {
		for ; w != 0; w &= w - 1 {
			v := i*64 + bits.TrailingZeros64(w)
			if d := s.size[v]; d < bestSize {
				best, bestSize = v, d
				if d <= 1 {
					return best
				}
			}
		}
	}
	return best
}
