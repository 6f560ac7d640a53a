// Package mds solves the (constrained) MINIMUM DOMINATING SET problem that
// the paper's best-response computation reduces to (§5.3). The paper used
// the Gurobi ILP solver; this package substitutes an exact branch-and-bound
// search over bitset-encoded closed neighborhoods (see DESIGN.md §3) with a
// greedy warm start, plus a greedy approximation for callers that prefer
// speed over optimality.
//
// A set S dominates graph G when every vertex is in S or adjacent to a
// vertex of S. The constrained variant starts from a set of forced
// vertices that are already in the solution for free; the solver minimizes
// only the number of additional vertices.
package mds

import (
	"math/bits"

	"repro/internal/graph"
)

// bitset is a fixed-capacity set of vertex ids.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func (b bitset) orInto(dst, other bitset) {
	for i := range b {
		dst[i] = b[i] | other[i]
	}
}

// count returns the number of set bits.
func (b bitset) count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// uncoveredCount counts bits set in full but not in b.
func uncoveredCount(full, covered bitset) int {
	c := 0
	for i := range full {
		c += bits.OnesCount64(full[i] &^ covered[i])
	}
	return c
}

// firstUncovered returns the lowest vertex id present in full but not in
// covered, or -1 when everything is covered.
func firstUncovered(full, covered bitset) int {
	for i := range full {
		if w := full[i] &^ covered[i]; w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// newGain counts how many currently uncovered vertices nb would cover.
func newGain(nb, covered, full bitset) int {
	c := 0
	for i := range nb {
		c += bits.OnesCount64(nb[i] & full[i] &^ covered[i])
	}
	return c
}

// closedNeighborhoods returns N[v] = {v} ∪ N(v) as bitsets.
func closedNeighborhoods(g *graph.Graph) []bitset {
	n := g.N()
	nbs := make([]bitset, n)
	for v := 0; v < n; v++ {
		nb := newBitset(n)
		nb.set(v)
		for _, w := range g.Neighbors(v) {
			nb.set(int(w))
		}
		nbs[v] = nb
	}
	return nbs
}

// MinDominatingExtra returns a minimum-cardinality set S of vertices such
// that forced ∪ S dominates g. The result excludes forced vertices and is
// exact. forced may be nil or empty, in which case the result is a true
// minimum dominating set of g.
func MinDominatingExtra(g *graph.Graph, forced []int) []int {
	set, _ := MinDominatingExtraAtMost(g, forced, g.N()+1)
	return set
}

// MinDominatingExtraAtMost behaves like MinDominatingExtra but only
// searches for solutions of size strictly below cap, returning ok=false
// when none exists. Callers that merely need "is there a dominating set
// cheaper than my incumbent?" (the best-response loop) use the cap to
// skip proving optimality of solutions they would discard anyway.
func MinDominatingExtraAtMost(g *graph.Graph, forced []int, limit int) ([]int, bool) {
	if g.N() == 0 {
		return nil, limit > 0
	}
	if limit <= 0 {
		return nil, false
	}
	return minDominatingExtraAtMost(g.N(), closedNeighborhoods(g), forced, limit)
}

// MinDominatingExtraAtMostBitsets is MinDominatingExtraAtMost for callers
// that already hold the closed neighborhoods of the (implicit) graph as
// bitsets: nbs[v] must contain bit v plus every vertex v dominates, packed
// in (n+63)/64 uint64 words. The best-response hot path builds these
// directly from an all-pairs distance table — one slab per power instead
// of materializing power graphs. The slices are read, never written, and
// the search is the same branch-and-bound as the graph entry point, so
// identical neighborhoods yield identical solutions.
func MinDominatingExtraAtMostBitsets(n int, nbs [][]uint64, forced []int, limit int) ([]int, bool) {
	if n == 0 {
		return nil, limit > 0
	}
	if limit <= 0 {
		return nil, false
	}
	bs := make([]bitset, n)
	for i := range bs {
		bs[i] = bitset(nbs[i])
	}
	return minDominatingExtraAtMost(n, bs, forced, limit)
}

// minDominatingExtraAtMost is the shared core; n > 0 and limit > 0.
func minDominatingExtraAtMost(n int, nbs []bitset, forced []int, limit int) ([]int, bool) {
	full := newBitset(n)
	for v := 0; v < n; v++ {
		full.set(v)
	}
	covered := newBitset(n)
	forcedSet := newBitset(n)
	for _, f := range forced {
		forcedSet.set(f)
		nbs[f].orInto(covered, covered)
	}
	if firstUncovered(full, covered) == -1 {
		return []int{}, true
	}

	s := &solver{
		n:        n,
		nbs:      nbs,
		full:     full,
		forced:   forcedSet,
		bestSize: limit,
	}
	// Greedy warm start tightens the bound when it beats the cap.
	if greedy := greedyExtra(nbs, full, covered.clone(), forcedSet); len(greedy) < limit {
		s.best = greedy
		s.bestSize = len(greedy)
	}
	s.search(covered, nil)
	if s.best == nil {
		return nil, false
	}
	return s.best, true
}

// Greedy returns a greedily built dominating set of g extending forced
// (forced vertices are excluded from the result). The result dominates g
// but need not be minimum.
func Greedy(g *graph.Graph, forced []int) []int {
	n := g.N()
	if n == 0 {
		return nil
	}
	nbs := closedNeighborhoods(g)
	full := newBitset(n)
	for v := 0; v < n; v++ {
		full.set(v)
	}
	covered := newBitset(n)
	forcedSet := newBitset(n)
	for _, f := range forced {
		forcedSet.set(f)
		nbs[f].orInto(covered, covered)
	}
	return greedyExtra(nbs, full, covered, forcedSet)
}

// greedyExtra repeatedly picks the vertex covering the most uncovered
// vertices. covered is consumed.
func greedyExtra(nbs []bitset, full, covered, forced bitset) []int {
	var out []int
	n := len(nbs)
	for firstUncovered(full, covered) != -1 {
		bestV, bestGain := -1, 0
		for v := 0; v < n; v++ {
			if forced.has(v) {
				continue
			}
			if gain := newGain(nbs[v], covered, full); gain > bestGain {
				bestGain, bestV = gain, v
			}
		}
		if bestV == -1 {
			// Isolated uncovered vertices cover only themselves.
			u := firstUncovered(full, covered)
			out = append(out, u)
			nbs[u].orInto(covered, covered)
			continue
		}
		out = append(out, bestV)
		nbs[bestV].orInto(covered, covered)
	}
	return out
}

// nodeBudget bounds the branch-and-bound search tree. The budget is far
// above what any experiment-scale instance needs; when it is exhausted the
// solver returns its greedy-seeded incumbent, which is still a valid
// dominating set but no longer certified minimum.
const nodeBudget = 4 << 20

type solver struct {
	n        int
	nbs      []bitset
	full     bitset
	forced   bitset
	best     []int // nil until a solution below the cap is found
	bestSize int   // strict size bound for further solutions
	nodes    int   // search nodes expanded
}

// search explores selections in a branch-and-bound over "which vertex
// covers the branching vertex": only vertices in N[u] can cover u, so
// branching on them is complete. The branching vertex is the uncovered
// vertex with the fewest coverers, which minimizes the branching factor.
func (s *solver) search(covered bitset, chosen []int) {
	if len(chosen) >= s.bestSize || s.nodes >= nodeBudget {
		return // cannot improve (or out of budget)
	}
	s.nodes++
	u := s.pickBranchVertex(covered)
	if u == -1 {
		s.best = append(chosen[:0:0], chosen...)
		s.bestSize = len(chosen)
		return
	}
	// Lower bound 1: each new vertex covers at most maxGain uncovered
	// vertices, so at least ceil(uncovered/maxGain) more picks are needed.
	uncov := uncoveredCount(s.full, covered)
	maxGain := 1
	for v := 0; v < s.n; v++ {
		if g := newGain(s.nbs[v], covered, s.full); g > maxGain {
			maxGain = g
		}
	}
	need := (uncov + maxGain - 1) / maxGain
	if len(chosen)+need >= s.bestSize {
		return
	}
	// Lower bound 2 (packing): uncovered vertices whose closed
	// neighborhoods are pairwise disjoint each require a distinct pick.
	// Much tighter than LB1 on sparse graphs (paths, cycles, tori).
	if len(chosen)+s.packingBound(covered) >= s.bestSize {
		return
	}
	// Branch over the candidates that can cover u, best gain first.
	var candidates []int
	for v := 0; v < s.n; v++ {
		if s.nbs[u].has(v) {
			candidates = append(candidates, v)
		}
	}
	gains := make(map[int]int, len(candidates))
	for _, c := range candidates {
		gains[c] = newGain(s.nbs[c], covered, s.full)
	}
	for i := 1; i < len(candidates); i++ {
		for j := i; j > 0 && gains[candidates[j]] > gains[candidates[j-1]]; j-- {
			candidates[j], candidates[j-1] = candidates[j-1], candidates[j]
		}
	}
	next := newBitset(s.n)
	for _, c := range candidates {
		s.nbs[c].orInto(next, covered)
		s.search(next.clone(), append(chosen, c))
	}
}

// packingBound greedily collects uncovered vertices with pairwise
// disjoint closed neighborhoods; any dominating set needs one distinct
// vertex per member, so the count lower-bounds the remaining picks.
func (s *solver) packingBound(covered bitset) int {
	blocked := newBitset(s.n)
	count := 0
	for v := 0; v < s.n; v++ {
		if covered.has(v) || !s.full.has(v) {
			continue
		}
		nb := s.nbs[v]
		disjoint := true
		for i := range nb {
			if nb[i]&blocked[i] != 0 {
				disjoint = false
				break
			}
		}
		if !disjoint {
			continue
		}
		count++
		// Block every vertex that could cover v (N[N[v]] would be exact;
		// blocking N[v] plus all vertices whose neighborhood meets N[v] is
		// the correct notion — a vertex w covers v iff v ∈ N[w], i.e.
		// w ∈ N[v]. Two packed vertices must not share a coverer, so it
		// suffices that their closed neighborhoods are disjoint.)
		for i := range nb {
			blocked[i] |= nb[i]
		}
	}
	return count
}

// pickBranchVertex returns the uncovered vertex with the smallest closed
// neighborhood (fewest possible coverers), or -1 when all are covered.
func (s *solver) pickBranchVertex(covered bitset) int {
	best, bestDeg := -1, 1<<30
	for v := 0; v < s.n; v++ {
		if covered.has(v) || !s.full.has(v) {
			continue
		}
		if d := s.nbs[v].count(); d < bestDeg {
			best, bestDeg = v, d
			if d <= 1 {
				break
			}
		}
	}
	return best
}

// Dominates reports whether forced ∪ set dominates g.
func Dominates(g *graph.Graph, set, forced []int) bool {
	n := g.N()
	covered := make([]bool, n)
	mark := func(v int) {
		covered[v] = true
		for _, w := range g.Neighbors(v) {
			covered[w] = true
		}
	}
	for _, v := range set {
		mark(v)
	}
	for _, v := range forced {
		mark(v)
	}
	for v := 0; v < n; v++ {
		if !covered[v] {
			return false
		}
	}
	return true
}

// BruteForce returns an exact minimum extra dominating set by exhaustive
// subset enumeration. Exponential — reference implementation for tests
// (n <= ~20).
func BruteForce(g *graph.Graph, forced []int) []int {
	n := g.N()
	if n > 25 {
		panic("mds: BruteForce limited to n <= 25")
	}
	forcedIn := make(map[int]bool, len(forced))
	for _, f := range forced {
		forcedIn[f] = true
	}
	var candidates []int
	for v := 0; v < n; v++ {
		if !forcedIn[v] {
			candidates = append(candidates, v)
		}
	}
	var best []int
	found := false
	for mask := 0; mask < 1<<len(candidates); mask++ {
		if found && bits.OnesCount(uint(mask)) >= len(best) {
			continue
		}
		var set []int
		for i, v := range candidates {
			if mask&(1<<i) != 0 {
				set = append(set, v)
			}
		}
		if Dominates(g, set, forced) {
			best = set
			found = true
		}
	}
	if !found {
		return nil
	}
	if best == nil {
		best = []int{}
	}
	return best
}
