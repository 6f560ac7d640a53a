package bestresponse

import (
	"repro/internal/game"
)

// SumDelta evaluates the paper's worst-case cost difference Δ(σ_u, σ'_u)
// for SUMNCG (Prop. 2.2), relative to the current strategy:
//
//   - if the candidate strategy pushes any frontier vertex (distance
//     exactly k in H) beyond distance k in the modified view H', or
//     disconnects a view vertex, the worst case is unbounded and the move
//     can never improve → +Inf;
//   - otherwise Δ = α(|σ'|-|σ|) + Σ_{v: d_H(u,v)≤k} (d_{H'}(u,v) - d_H(u,v)),
//     over the whole view, frontier included, attained at G = H.
//
// A strategy is improving exactly when SumDelta < 0. completion_oracle_test.go
// builds every network consistent with the view: it is the specification.
func SumDelta(s *game.State, u, k int, alpha float64, strategy []int) float64 {
	e := evalPool.Get().(*Evaluator)
	d := e.SumDelta(s, u, k, alpha, strategy)
	evalPool.Put(e)
	return d
}

// SumExhaustiveResult is the outcome of the exhaustive SUMNCG responder.
type SumExhaustiveResult struct {
	Response
	// Feasible is false when the view exceeded maxCandidates and the
	// search was skipped.
	Feasible bool
}

// SumBestResponseExhaustive computes an exact SUMNCG best response over
// the view by subset enumeration, honoring the frontier guard. The
// candidate set excludes u and vertices that bought edges towards u (edges
// that exist for free). maxCandidates bounds the enumeration (2^c
// evaluations).
func SumBestResponseExhaustive(s *game.State, u, k int, alpha float64, maxCandidates int) SumExhaustiveResult {
	e := evalPool.Get().(*Evaluator)
	r := e.SumBestResponseExhaustive(s, u, k, alpha, maxCandidates)
	evalPool.Put(e)
	return r
}

// SumGreedyResponse looks for an improving move among single-edge
// additions, single-edge removals, and single swaps (remove one bought
// edge, add one new edge). It returns the best such move — a
// "better response" in the paper's terminology — or Improving=false when
// no local move helps. This keeps SUMNCG dynamics runnable at sizes where
// the exact responder is infeasible (the paper itself limited experiments
// to MAXNCG for exactly this reason, see §5; package mds's doc describes
// the exact solver that stands in for the paper's ILP there).
func SumGreedyResponse(s *game.State, u, k int, alpha float64) Response {
	e := evalPool.Get().(*Evaluator)
	r := e.SumGreedyResponse(s, u, k, alpha)
	evalPool.Put(e)
	return r
}
