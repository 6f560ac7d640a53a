package bestresponse

import (
	"repro/internal/game"
	"repro/internal/graph"
)

// One descent, two caps. Every single-move responder of this package is
// descend: best-improvement descent over the shift (add/drop) and exchange
// (swap) moves INSIDE the view extracted once at decision time. The greedy
// responders ("better response", §2) stop after one step; the
// large-neighborhood ones, à la Sokol et al.'s BAP heuristics (PAPERS.md),
// go on for up to maxDescentSteps — a compound deviation explored
// heuristically rather than by enumerating the exponential strategy
// space. The descent is deterministic (the same earliest-candidate epsilon
// tie-break at every step), so it slots into the dynamics engine like any
// other responder, and it reads only the player's k-ball view plus the
// arcs bought towards her, so event-driven activation stays sound.
//
// The naive counterparts in reference_test.go and large_reference_test.go
// are the executable specs: same candidate order, same tie-breaks, one
// fresh BFS per candidate. The differential tests pin both caps to them.

// maxDescentSteps caps the large-neighborhood descent. Each step strictly
// improves the (bounded-below) cost by more than epsilon so termination
// needs no cap in principle; the cap keeps the worst case predictable and
// is part of the response's definition — both implementations share it.
const maxDescentSteps = 64

// descend runs at most maxSteps rounds of greedyScan, each from the
// strategy the last one reached. The objectives differ in three places:
// how a candidate is scored, the score descent starts from (SUM reports
// the Δ against the current strategy, so 0; MAX the absolute view cost),
// and what the two strategies of a radius-zero view cost.
func (e *Evaluator) descend(s *game.State, u, k int, alpha float64, variant game.Variant, maxSteps int) Response {
	current := s.Strategy(u)
	if k == 0 {
		if variant == game.Sum {
			return radiusZeroResponse(current, 0, -alpha)
		}
		return radiusZeroResponse(current, alpha*float64(len(current)), 0)
	}
	e.prepare(s, u, k)
	bought := s.BoughtCount(u)
	var cur float64
	var eval func(candLen int) float64
	if variant == game.Sum {
		eval = func(candLen int) float64 { return e.sumDelta(alpha, candLen, bought) }
	} else {
		cur = alpha*float64(bought) + float64(e.ws.ViewEcc())
		eval = func(candLen int) float64 {
			ecc := e.ws.EccAll()
			if ecc >= graph.Unreachable {
				return game.InfiniteCost
			}
			return alpha*float64(candLen) + float64(ecc)
		}
	}
	working, score, steps := current, cur, 0
	for ; steps < maxSteps; steps++ {
		e.markCandidates(s, u, working)
		newScore, best, improving := e.greedyScan(working, score, eval)
		e.clearFlags()
		if !improving {
			break
		}
		working = e.materialize(working, best)
		score = newScore
	}
	if steps == 0 {
		working = e.materialize(current, move{}) // no move: a fresh copy
	}
	return Response{
		Strategy:    working,
		Cost:        score,
		CurrentCost: cur,
		Improving:   steps > 0,
	}
}

// SumLargeNeighborhoodResponse runs shift/exchange best-improvement
// descent for the SUM objective. Cost is the Δ of the final strategy
// relative to the current one (negative = gain), like SumGreedyResponse.
func (e *Evaluator) SumLargeNeighborhoodResponse(s *game.State, u, k int, alpha float64) Response {
	return e.descend(s, u, k, alpha, game.Sum, maxDescentSteps)
}

// MaxLargeNeighborhoodResponse runs shift/exchange best-improvement
// descent for the MAX objective. Costs are absolute view costs, like
// MaxGreedyResponse.
func (e *Evaluator) MaxLargeNeighborhoodResponse(s *game.State, u, k int, alpha float64) Response {
	return e.descend(s, u, k, alpha, game.Max, maxDescentSteps)
}
