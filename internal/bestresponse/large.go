package bestresponse

import (
	"repro/internal/game"
	"repro/internal/graph"
)

// Large-neighborhood responses à la Sokol et al.'s BAP heuristics
// (PAPERS.md): instead of committing to the single best shift (add/drop)
// or exchange (swap) move, the responder runs best-improvement descent
// over that move set INSIDE the view extracted once at decision time —
// a compound deviation of up to maxDescentSteps single moves, explored
// heuristically rather than enumerating the exponential strategy space.
// The descent is deterministic (the same earliest-candidate epsilon
// tie-break as the greedy scan, iterated), so it slots into the dynamics
// engine like any other responder, and it reads only the player's k-ball
// view plus the arcs bought towards her, so event-driven activation
// stays sound.
//
// The naive counterpart in large_reference_test.go is the executable spec:
// same candidate order, same tie-breaks, one fresh BFS per candidate.
// The differential tests pin the two byte-identical.

// maxDescentSteps caps the descent depth. Each step strictly improves
// the (bounded-below) cost by more than epsilon so termination needs no
// cap in principle; the cap keeps the worst case predictable and is part
// of the response's definition — both implementations share it.
const maxDescentSteps = 64

// SumLargeNeighborhoodResponse runs shift/exchange best-improvement
// descent for the SUM objective. Cost is the Δ of the final strategy
// relative to the current one (negative = gain), like SumGreedyResponse.
func (e *Evaluator) SumLargeNeighborhoodResponse(s *game.State, u, k int, alpha float64) Response {
	current := s.Strategy(u)
	if k == 0 {
		return radiusZeroResponse(current, 0, -alpha)
	}
	e.prepare(s, u, k)
	bought := s.BoughtCount(u)
	eval := func(candLen int) float64 {
		sum, ok := e.ws.InnerSum()
		if !ok {
			return game.InfiniteCost
		}
		return alpha*float64(candLen-bought) + float64(sum-e.ws.InnerBase())
	}
	working := current
	score := 0.0
	steps := 0
	for ; steps < maxDescentSteps; steps++ {
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
		working = append([]int(nil), current...)
	}
	return Response{
		Strategy:    working,
		Cost:        score,
		CurrentCost: 0,
		Improving:   steps > 0,
	}
}

// MaxLargeNeighborhoodResponse runs shift/exchange best-improvement
// descent for the MAX objective. Costs are absolute view costs, like
// MaxGreedyResponse.
func (e *Evaluator) MaxLargeNeighborhoodResponse(s *game.State, u, k int, alpha float64) Response {
	current := s.Strategy(u)
	if k == 0 {
		return radiusZeroResponse(current, alpha*float64(len(current)), 0)
	}
	e.prepare(s, u, k)
	cur := alpha*float64(s.BoughtCount(u)) + float64(e.ws.ViewEcc())
	eval := func(candLen int) float64 {
		ecc := e.ws.EccAll()
		if ecc >= graph.Unreachable {
			return game.InfiniteCost
		}
		return alpha*float64(candLen) + float64(ecc)
	}
	working := current
	score := cur
	steps := 0
	for ; steps < maxDescentSteps; steps++ {
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
		working = append([]int(nil), current...)
	}
	return Response{
		Strategy:    working,
		Cost:        score,
		CurrentCost: cur,
		Improving:   steps > 0,
	}
}
