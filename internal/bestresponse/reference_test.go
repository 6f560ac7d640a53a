package bestresponse

import (
	"math"
	"sort"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/mds"
	"repro/internal/view"
)

// This file retains the original clone-and-BFS responder implementations,
// verbatim except for the ref prefix and two integer-overflow fixes the
// fast path shares (2k+1 for a huge k, the solve cap for a tiny α). They
// are the specification: the pooled Evaluator in eval.go must return
// byte-identical responses, and the differential tests in
// differential_test.go pin the two against each other on randomized
// instances. Nothing outside the tests calls them.

// refSumDelta is the reference implementation of SumDelta. It sums over
// the whole view, frontier included, as the completion oracle
// (completion_oracle_test.go) says the worst case does.
func refSumDelta(s *game.State, u, k int, alpha float64, strategy []int) float64 {
	v := view.Extract(s.Graph(), u, k)
	hPrime := v.H.Clone()
	for _, w := range s.Strategy(u) {
		lw, ok := v.Local[w]
		if !ok {
			continue
		}
		if !s.Buys(w, u) {
			hPrime.RemoveEdge(v.Center, lw)
		}
	}
	for _, w := range strategy {
		lw, ok := v.Local[w]
		if !ok {
			return game.InfiniteCost // outside the local strategy space
		}
		hPrime.AddEdge(v.Center, lw)
	}
	newDist := make([]int, hPrime.N())
	hPrime.BFS(v.Center, newDist)

	// Frontier guard: d_H(u,f) = k must imply d_{H'}(u,f) <= k, and no
	// view vertex may become unreachable.
	delta := alpha * float64(len(strategy)-s.BoughtCount(u))
	for i, d := range v.Dist {
		if newDist[i] >= graph.Unreachable || (d == v.K && newDist[i] > v.K) {
			return game.InfiniteCost
		}
		delta += float64(newDist[i] - d)
	}
	return delta
}

// refSumBestResponseExhaustive is the reference implementation of
// SumBestResponseExhaustive.
func refSumBestResponseExhaustive(s *game.State, u, k int, alpha float64, maxCandidates int) SumExhaustiveResult {
	v := view.Extract(s.Graph(), u, k)
	var candidates []int
	for i, orig := range v.Orig {
		if i == v.Center || s.Buys(orig, u) {
			continue
		}
		candidates = append(candidates, orig)
	}
	if len(candidates) > maxCandidates {
		return SumExhaustiveResult{Feasible: false}
	}
	bestDelta := 0.0 // the current strategy has Δ = 0 by definition
	var bestStrategy []int = s.Strategy(u)
	improving := false
	for mask := 0; mask < 1<<len(candidates); mask++ {
		var cand []int
		for i, w := range candidates {
			if mask&(1<<i) != 0 {
				cand = append(cand, w)
			}
		}
		if cand == nil {
			cand = []int{}
		}
		d := refSumDelta(s, u, k, alpha, cand)
		if d < bestDelta-epsilon {
			bestDelta = d
			bestStrategy = cand
			improving = true
		}
	}
	sort.Ints(bestStrategy)
	return SumExhaustiveResult{
		Response: Response{
			Strategy:    bestStrategy,
			Cost:        bestDelta, // Δ relative to current (negative = gain)
			CurrentCost: 0,
			Improving:   improving,
		},
		Feasible: true,
	}
}

// refSumGreedyResponse is the reference implementation of
// SumGreedyResponse.
func refSumGreedyResponse(s *game.State, u, k int, alpha float64) Response {
	current := s.Strategy(u)
	v := view.Extract(s.Graph(), u, k)

	bestDelta := 0.0
	bestStrategy := current
	improving := false
	try := func(candidate []int) {
		d := refSumDelta(s, u, k, alpha, candidate)
		if d < bestDelta-epsilon {
			bestDelta = d
			bestStrategy = candidate
			improving = true
		}
	}

	inCurrent := make(map[int]bool, len(current))
	for _, w := range current {
		inCurrent[w] = true
	}
	// Additions.
	for _, orig := range v.Orig {
		if orig == u || inCurrent[orig] || s.Buys(orig, u) {
			continue
		}
		try(append(append([]int{}, current...), orig))
	}
	// Removals.
	for i := range current {
		cand := make([]int, 0, len(current)-1)
		cand = append(cand, current[:i]...)
		cand = append(cand, current[i+1:]...)
		try(cand)
	}
	// Swaps.
	for i := range current {
		base := make([]int, 0, len(current))
		base = append(base, current[:i]...)
		base = append(base, current[i+1:]...)
		for _, orig := range v.Orig {
			if orig == u || inCurrent[orig] || s.Buys(orig, u) {
				continue
			}
			try(append(append([]int{}, base...), orig))
		}
	}
	out := append([]int(nil), bestStrategy...)
	sort.Ints(out)
	return Response{
		Strategy:    out,
		Cost:        bestDelta,
		CurrentCost: 0,
		Improving:   improving,
	}
}

// refMaxBestResponse is the reference implementation of MaxBestResponse.
func refMaxBestResponse(s *game.State, u, k int, alpha float64) Response {
	v := view.Extract(s.Graph(), u, k)
	cur := currentViewCost(s, v, game.Max, alpha, u)

	// Build H∖{u} with a local id remap (local ids shift after dropping
	// the center).
	rest, restOrig := dropCenter(v)
	nRest := rest.N()
	if nRest == 0 {
		// Lone player: buying nothing is the unique (vacuous) strategy.
		return Response{Strategy: []int{}, Cost: 0, CurrentCost: cur, Improving: cur > epsilon}
	}

	// Forced dominators: view vertices that bought an edge towards u.
	var forced []int
	for i, orig := range restOrig {
		if s.Buys(orig, u) {
			forced = append(forced, i)
		}
	}

	// Candidate eccentricities h: d(u,v) = 1 + d_{H∖u}(S∪forced, v), so the
	// achievable eccentricity range is 1..(1+ecc of any vertex). 2k+1 is a
	// safe upper bound inside a radius-k view; cap by nRest as well (k is
	// compared before doubling: 2k+1 wraps for huge k).
	maxH := nRest
	if k < nRest && 2*k+1 < nRest {
		maxH = 2*k + 1
	}
	if maxH < 1 {
		maxH = 1
	}

	// The incumbent starts at the player's CURRENT cost: only strictly
	// cheaper strategies matter, so every dominating-set search below is
	// capped at the size that would actually beat it — never proving
	// optimality of solutions we would discard. Candidate eccentricities
	// are visited in DESCENDING order so the cap stays tight from the
	// first iteration (at h = maxH the empty extra set always works).
	bestCost := cur
	var bestSet []int
	improved := false
	for h := maxH; h >= 1; h-- {
		if float64(h) >= bestCost-epsilon {
			continue // cost >= h can no longer improve on the incumbent
		}
		limit := nRest + 1
		if alpha > 0 {
			// Compared before converting: the quotient leaves int's range
			// for a small enough α.
			if useful := (bestCost - float64(h)) / alpha; useful < float64(limit) {
				limit = int(math.Ceil(useful))
			}
		}
		p := rest.Power(h - 1)
		extra, ok := mds.MinDominatingExtraAtMost(p, forced, limit)
		if !ok {
			continue
		}
		cost := alpha*float64(len(extra)) + float64(h)
		if cost < bestCost-epsilon {
			bestCost = cost
			bestSet = extra
			improved = true
		}
	}

	if !improved {
		return Response{
			Strategy:    s.Strategy(u),
			Cost:        cur,
			CurrentCost: cur,
			Improving:   false,
		}
	}
	strategy := make([]int, 0, len(bestSet))
	for _, l := range bestSet {
		strategy = append(strategy, restOrig[l])
	}
	sort.Ints(strategy)
	return Response{
		Strategy:    strategy,
		Cost:        bestCost,
		CurrentCost: cur,
		Improving:   true,
	}
}

// currentViewCost evaluates u's current cost restricted to her view: the
// building term uses the full strategy (every bought edge costs α even if
// its endpoint is currently invisible — it was visible when bought and u
// knows she pays for it), while the usage term is measured on the view,
// consistent with Propositions 2.1/2.2.
func currentViewCost(s *game.State, v *view.View, variant game.Variant, alpha float64, u int) float64 {
	build := alpha * float64(s.BoughtCount(u))
	switch variant {
	case game.Max:
		ecc := 0
		for _, d := range v.Dist {
			if d > ecc {
				ecc = d
			}
		}
		if !connectedView(v) {
			return game.InfiniteCost
		}
		return build + float64(ecc)
	case game.Sum:
		sum := 0
		for _, d := range v.Dist {
			sum += d
		}
		if !connectedView(v) {
			return game.InfiniteCost
		}
		return build + float64(sum)
	default:
		panic("bestresponse: unknown variant")
	}
}

// connectedView reports whether every view vertex is reachable from the
// center (true by construction of Extract, kept as a guard).
func connectedView(v *view.View) bool {
	for _, d := range v.Dist {
		if d >= graph.Unreachable {
			return false
		}
	}
	return true
}

// dropCenter returns the view graph with the center removed, and the
// mapping from new local ids to global ids.
func dropCenter(v *view.View) (*graph.Graph, []int) {
	var keep []int
	for i := range v.Orig {
		if i != v.Center {
			keep = append(keep, i)
		}
	}
	sub, subOrig := v.H.Induced(keep)
	orig := make([]int, len(subOrig))
	for i, localID := range subOrig {
		orig[i] = v.Orig[localID]
	}
	return sub, orig
}

// refMaxEvaluate is the reference implementation of MaxEvaluate.
func refMaxEvaluate(s *game.State, u, k int, alpha float64, strategy []int) float64 {
	v := view.Extract(s.Graph(), u, k)
	h := v.H.Clone()
	// Remove u's bought edges, keep edges bought by others towards u.
	for _, w := range s.Strategy(u) {
		lw, ok := v.Local[w]
		if !ok {
			continue
		}
		if !s.Buys(w, u) {
			h.RemoveEdge(v.Center, lw)
		}
	}
	for _, w := range strategy {
		lw, ok := v.Local[w]
		if !ok {
			return game.InfiniteCost // outside the strategy space
		}
		h.AddEdge(v.Center, lw)
	}
	dist := make([]int, h.N())
	h.BFS(v.Center, dist)
	ecc := 0
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	if ecc >= graph.Unreachable {
		return game.InfiniteCost
	}
	return alpha*float64(len(strategy)) + float64(ecc)
}

// refMaxGreedyResponse is the reference implementation of
// MaxGreedyResponse.
func refMaxGreedyResponse(s *game.State, u, k int, alpha float64) Response {
	current := s.Strategy(u)
	v := view.Extract(s.Graph(), u, k)
	cur := currentViewCost(s, v, game.Max, alpha, u)

	bestCost := cur
	bestStrategy := current
	improving := false
	try := func(candidate []int) {
		c := refMaxEvaluate(s, u, k, alpha, candidate)
		if c < bestCost-epsilon {
			bestCost = c
			bestStrategy = candidate
			improving = true
		}
	}

	inCurrent := make(map[int]bool, len(current))
	for _, w := range current {
		inCurrent[w] = true
	}
	// Additions.
	for _, orig := range v.Orig {
		if orig == u || inCurrent[orig] || s.Buys(orig, u) {
			continue
		}
		try(append(append([]int{}, current...), orig))
	}
	// Removals.
	for i := range current {
		cand := make([]int, 0, len(current)-1)
		cand = append(cand, current[:i]...)
		cand = append(cand, current[i+1:]...)
		try(cand)
	}
	// Swaps.
	for i := range current {
		base := make([]int, 0, len(current))
		base = append(base, current[:i]...)
		base = append(base, current[i+1:]...)
		for _, orig := range v.Orig {
			if orig == u || inCurrent[orig] || s.Buys(orig, u) {
				continue
			}
			try(append(append([]int{}, base...), orig))
		}
	}
	out := append([]int(nil), bestStrategy...)
	sort.Ints(out)
	return Response{
		Strategy:    out,
		Cost:        bestCost,
		CurrentCost: cur,
		Improving:   improving,
	}
}
