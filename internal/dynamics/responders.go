package dynamics

import (
	"sort"

	"repro/internal/bestresponse"
	"repro/internal/game"
	"repro/internal/swap"
)

// This file is the one seam between the paper's move rules and the engine
// (engine.go): every rule is a constructor returning a Responder that owns
// its evaluation scratch, so a worker that resolves one through
// Config.NewResponder reuses its buffers across every cell it runs.
// Schedules, dirty-set activation, cycle detection, trajectories and
// checkpoint byte-identity are the engine's and hold for every rule.

// Responder computes a (best or better) response for one player. It must
// be deterministic for cycle detection to be sound, and a function of the
// player's k-ball view plus the arcs bought towards her (the locality
// contract of the package documentation), because the engine skips
// players whose neighborhood has not changed. A Responder is not safe for
// concurrent use: each goroutine constructs its own.
type Responder func(s *game.State, u, k int, alpha float64) bestresponse.Response

// sumMaxCandidates is the view size up to which NewSumResponder searches
// every subset (2^16 evaluations) before falling back to greedy moves.
const sumMaxCandidates = 16

// NewMaxResponder returns the exact MAXNCG best responder (§5.3
// reduction).
func NewMaxResponder() Responder {
	return bestresponse.NewEvaluator().MaxBestResponse
}

// NewSumResponder returns the SUMNCG responder: exact subset search when
// the view has at most sumMaxCandidates candidates, greedy local moves
// otherwise.
func NewSumResponder() Responder {
	e := bestresponse.NewEvaluator()
	return func(s *game.State, u, k int, alpha float64) bestresponse.Response {
		ex := e.SumBestResponseExhaustive(s, u, k, alpha, sumMaxCandidates)
		if ex.Feasible {
			return ex.Response
		}
		return e.SumGreedyResponse(s, u, k, alpha)
	}
}

// SwapResponder adapts swap.BestSwap to the engine: the player's only
// move is to re-point one endpoint of an edge she owns (no purchases, no
// deletions — Alon et al.'s basic game under the locality model; see
// package swap). α is ignored by the move rule: the edge count never
// changes, so the building term cancels out of every comparison. The
// responder is deterministic, and it reads only the player's k-ball view
// plus the arcs bought towards her, so event-driven activation stays
// sound. Cost fields of the response are not populated (the swap scan
// compares integer usage costs internally).
//
// Applying the returned strategy through game.SetStrategy removes
// exactly the old endpoint and appends exactly the new one, the same
// adjacency-list evolution as swap.Apply — so engine-run swap dynamics
// are cell-for-cell identical to swap.Run, which the sweepd differential
// tests pin.
func SwapResponder(variant game.Variant) Responder {
	obj := swap.MaxEcc
	if variant == game.Sum {
		obj = swap.SumDist
	}
	return func(s *game.State, u, k int, alpha float64) bestresponse.Response {
		m, ok := swap.BestSwap(s, u, k, obj)
		if !ok {
			return bestresponse.Response{Strategy: s.Strategy(u), Improving: false}
		}
		cur := s.Strategy(u)
		out := make([]int, 0, len(cur))
		for _, w := range cur {
			if w != m.Old {
				out = append(out, w)
			}
		}
		out = append(out, m.New)
		sort.Ints(out)
		return bestresponse.Response{Strategy: out, Improving: true}
	}
}

// NewLargeNeighborhoodResponder returns the responder that runs
// shift/exchange best-improvement descent inside the view (see
// bestresponse/large.go) for the given objective.
func NewLargeNeighborhoodResponder(variant game.Variant) Responder {
	e := bestresponse.NewEvaluator()
	if variant == game.Sum {
		return e.SumLargeNeighborhoodResponse
	}
	return e.MaxLargeNeighborhoodResponse
}
