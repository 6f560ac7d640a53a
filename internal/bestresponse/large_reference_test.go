package bestresponse

import (
	"sort"

	"repro/internal/game"
	"repro/internal/view"
)

// refLargeNeighborhoodResponse is the executable specification of the
// large-neighborhood responders in large.go: the same best-improvement
// descent over the shift/exchange move set, with every candidate scored
// by a fresh clone-and-BFS evaluation (refSumDelta / refMaxEvaluate)
// instead of the workspace's incremental relax/undo. Candidate order and
// tie-breaks mirror greedyScan exactly — additions in local-id order,
// then removals by index, then swaps — so the two implementations must
// return byte-identical responses, which the differential tests pin.
func refLargeNeighborhoodResponse(s *game.State, u, k int, alpha float64, variant game.Variant) Response {
	current := s.Strategy(u)
	v := view.Extract(s.Graph(), u, k)
	score := func(strategy []int) float64 {
		if variant == game.Sum {
			return refSumDelta(s, u, k, alpha, strategy)
		}
		return refMaxEvaluate(s, u, k, alpha, strategy)
	}
	var cur float64
	if variant == game.Sum {
		cur = 0 // deltas are relative to the current strategy
	} else {
		cur = currentViewCost(s, v, game.Max, alpha, u)
	}

	working := append([]int(nil), current...)
	best := cur
	steps := 0
	for ; steps < maxDescentSteps; steps++ {
		stepScore := best
		var stepStrategy []int
		improving := false
		try := func(candidate []int) {
			sorted := append([]int(nil), candidate...)
			sort.Ints(sorted)
			d := score(sorted)
			if d < stepScore-epsilon {
				stepScore = d
				stepStrategy = sorted
				improving = true
			}
		}
		inWorking := make(map[int]bool, len(working))
		for _, w := range working {
			inWorking[w] = true
		}
		// Additions, in the view's local-id order like greedyScan (the
		// workspace assigns locals in the same BFS order as view.Extract,
		// which the greedy differential tests already rely on).
		for _, orig := range v.Orig {
			if orig == u || inWorking[orig] || s.Buys(orig, u) {
				continue
			}
			try(append(append([]int{}, working...), orig))
		}
		// Removals.
		for i := range working {
			cand := make([]int, 0, len(working)-1)
			cand = append(cand, working[:i]...)
			cand = append(cand, working[i+1:]...)
			try(cand)
		}
		// Swaps.
		for i := range working {
			base := make([]int, 0, len(working))
			base = append(base, working[:i]...)
			base = append(base, working[i+1:]...)
			for _, orig := range v.Orig {
				if orig == u || inWorking[orig] || s.Buys(orig, u) {
					continue
				}
				try(append(append([]int{}, base...), orig))
			}
		}
		if !improving {
			break
		}
		working = stepStrategy
		best = stepScore
	}
	return Response{
		Strategy:    working,
		Cost:        best,
		CurrentCost: cur,
		Improving:   steps > 0,
	}
}
