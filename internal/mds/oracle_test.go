package mds

import (
	"math"
	"math/bits"

	"repro/internal/graph"
)

// What this package's tests hold the solver against: the greedy warm start
// on its own, a domination check and exhaustive subset enumeration. None
// has a caller outside these tests.

// Greedy returns a greedily built dominating set of g extending forced
// (forced vertices are excluded from the result). The result dominates g
// but need not be minimum.
func Greedy(g *graph.Graph, forced []int) []int {
	n := g.N()
	if n == 0 {
		return nil
	}
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	s.reset(n, s.closedNeighborhoods(g), forced)
	s.lowerBound(s.size, math.MaxInt) // greedy's first pick reads the root's gains
	s.greedyExtra(math.MaxInt)
	return append([]int(nil), s.best...)
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
