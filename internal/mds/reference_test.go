package mds

import "math/bits"

// This file retains the allocating solver core that Solver replaced —
// refMinDominatingExtraAtMost, refSolver.search and refGreedyExtra,
// verbatim except for the ref prefix. It is the specification: Solver
// must return the same vertices in the same order, the same ok, and
// expand the same number of search nodes (differential_test.go), because
// sweep checkpoints are pinned byte for byte to which optimum the DFS
// reaches first.

type refBitset []uint64

func newRefBitset(n int) refBitset { return make(refBitset, (n+63)/64) }

func (b refBitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b refBitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b refBitset) clone() refBitset {
	c := make(refBitset, len(b))
	copy(c, b)
	return c
}

func (b refBitset) orInto(dst, other refBitset) {
	for i := range b {
		dst[i] = b[i] | other[i]
	}
}

func (b refBitset) count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

func refUncoveredCount(full, covered refBitset) int {
	c := 0
	for i := range full {
		c += bits.OnesCount64(full[i] &^ covered[i])
	}
	return c
}

func refFirstUncovered(full, covered refBitset) int {
	for i := range full {
		if w := full[i] &^ covered[i]; w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

func refNewGain(nb, covered, full refBitset) int {
	c := 0
	for i := range nb {
		c += bits.OnesCount64(nb[i] & full[i] &^ covered[i])
	}
	return c
}

// refMinDominatingExtraAtMost is the retained shared core; n > 0 and
// limit > 0. It also reports the number of search nodes expanded.
func refMinDominatingExtraAtMost(n int, nbs []refBitset, forced []int, limit int) ([]int, bool, int) {
	full := newRefBitset(n)
	for v := 0; v < n; v++ {
		full.set(v)
	}
	covered := newRefBitset(n)
	forcedSet := newRefBitset(n)
	for _, f := range forced {
		forcedSet.set(f)
		nbs[f].orInto(covered, covered)
	}
	if refFirstUncovered(full, covered) == -1 {
		return []int{}, true, 0
	}

	s := &refSolver{
		n:        n,
		nbs:      nbs,
		full:     full,
		forced:   forcedSet,
		bestSize: limit,
	}
	// Greedy warm start tightens the bound when it beats the cap.
	if greedy := refGreedyExtra(nbs, full, covered.clone(), forcedSet); len(greedy) < limit {
		s.best = greedy
		s.bestSize = len(greedy)
	}
	s.search(covered, nil)
	if s.best == nil {
		return nil, false, s.nodes
	}
	return s.best, true, s.nodes
}

// refGreedyExtra repeatedly picks the vertex covering the most uncovered
// vertices. covered is consumed.
func refGreedyExtra(nbs []refBitset, full, covered, forced refBitset) []int {
	var out []int
	n := len(nbs)
	for refFirstUncovered(full, covered) != -1 {
		bestV, bestGain := -1, 0
		for v := 0; v < n; v++ {
			if forced.has(v) {
				continue
			}
			if gain := refNewGain(nbs[v], covered, full); gain > bestGain {
				bestGain, bestV = gain, v
			}
		}
		if bestV == -1 {
			// Isolated uncovered vertices cover only themselves.
			u := refFirstUncovered(full, covered)
			out = append(out, u)
			nbs[u].orInto(covered, covered)
			continue
		}
		out = append(out, bestV)
		nbs[bestV].orInto(covered, covered)
	}
	return out
}

type refSolver struct {
	n        int
	nbs      []refBitset
	full     refBitset
	forced   refBitset
	best     []int // nil until a solution below the cap is found
	bestSize int   // strict size bound for further solutions
	nodes    int   // search nodes expanded
}

func (s *refSolver) search(covered refBitset, chosen []int) {
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
	uncov := refUncoveredCount(s.full, covered)
	maxGain := 1
	for v := 0; v < s.n; v++ {
		if g := refNewGain(s.nbs[v], covered, s.full); g > maxGain {
			maxGain = g
		}
	}
	need := (uncov + maxGain - 1) / maxGain
	if len(chosen)+need >= s.bestSize {
		return
	}
	// Lower bound 2 (packing): uncovered vertices whose closed
	// neighborhoods are pairwise disjoint each require a distinct pick.
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
		gains[c] = refNewGain(s.nbs[c], covered, s.full)
	}
	for i := 1; i < len(candidates); i++ {
		for j := i; j > 0 && gains[candidates[j]] > gains[candidates[j-1]]; j-- {
			candidates[j], candidates[j-1] = candidates[j-1], candidates[j]
		}
	}
	next := newRefBitset(s.n)
	for _, c := range candidates {
		s.nbs[c].orInto(next, covered)
		s.search(next.clone(), append(chosen, c))
	}
}

func (s *refSolver) packingBound(covered refBitset) int {
	blocked := newRefBitset(s.n)
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
		for i := range nb {
			blocked[i] |= nb[i]
		}
	}
	return count
}

func (s *refSolver) pickBranchVertex(covered refBitset) int {
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
