// Package bestresponse computes players' best responses under the
// locality model. For MAXNCG, Proposition 2.1 shows the worst-case
// realizable network coincides with the player's view, so the player can
// optimize directly on the view; the optimization itself reduces to a
// constrained MINIMUM DOMINATING SET on powers of the view (§5.3). For
// SUMNCG, Proposition 2.2 additionally forbids strategies that push
// frontier vertices beyond distance k.
//
// The Evaluator (eval.go) is the implementation: it extracts the player's
// view once into a pooled view.Workspace and scores every candidate
// deviation by incremental, undoable distance relaxation — no clone, no
// full BFS per candidate; the package-level functions run on a pooled
// Evaluator. The four single-move responders (greedy and
// large-neighborhood, either objective) are one descent under two step
// caps (large.go). What it is held to lives behind the test boundary,
// where the compiler keeps production code from calling it:
// reference_test.go and large_reference_test.go retain the original
// clone-and-BFS responders (ref*) as the executable specification, and
// differential_test.go, large_differential_test.go, scan_test.go,
// powers_test.go and FuzzMaxBestResponse pin the Evaluator to them on
// randomized instances — byte-identical responses, same sorted
// strategies, same epsilon tie-breaks.
package bestresponse

import (
	"repro/internal/game"
)

// epsilon guards strict-improvement comparisons against float noise in
// α-weighted costs.
const epsilon = 1e-9

// Response is the outcome of a best-response computation.
type Response struct {
	// Strategy is the proposed σ'_u in global vertex ids (sorted).
	Strategy []int
	// Cost is the player's cost under Strategy, evaluated on her view
	// (building cost + usage within the view).
	Cost float64
	// CurrentCost is the player's cost under her current strategy,
	// evaluated the same way.
	CurrentCost float64
	// Improving reports whether Strategy is strictly better than the
	// current strategy (by more than epsilon).
	Improving bool
	// Scan is the exact MAXNCG scan's work for this one response (zero
	// for every other responder).
	Scan ScanStats
}

// MaxBestResponse computes an exact best response for player u in MAXNCG
// with view radius k and edge price alpha, following §5.3:
//
//  1. extract the view H = G[β(u,k)];
//  2. remove u; vertices that bought an edge towards u stay adjacent to u
//     in every strategy, so they are "forced" dominators;
//  3. for every target eccentricity h, a strategy achieving eccentricity
//     <= h is exactly a dominating set of the (h-1)-th power of H∖{u}
//     extending the forced set; minimize α·|extra| + h over h.
//
// The returned strategy never buys edges already bought towards u (they
// would be pure waste) and is exact: no strategy over the view has lower
// cost.
func MaxBestResponse(s *game.State, u, k int, alpha float64) Response {
	e := evalPool.Get().(*Evaluator)
	r := e.MaxBestResponse(s, u, k, alpha)
	evalPool.Put(e)
	return r
}
