package bestresponse

import (
	"repro/internal/game"
	"repro/internal/graph"
)

// Nothing outside this package's tests calls MaxEvaluate: they use it to
// score arbitrary candidate strategies (exhaustive search over a view, the
// cost a responder claims) on the Evaluator's incremental workspace, and
// differential_test.go pins it to refMaxEvaluate.

// MaxEvaluate computes the view-restricted MAXNCG cost of an arbitrary
// candidate strategy (global ids, all inside u's view): α·|σ'| plus the
// eccentricity of u in the modified view H'.
func MaxEvaluate(s *game.State, u, k int, alpha float64, strategy []int) float64 {
	e := evalPool.Get().(*Evaluator)
	c := e.MaxEvaluate(s, u, k, alpha, strategy)
	evalPool.Put(e)
	return c
}

// MaxEvaluate is the Evaluator form of the package-level MaxEvaluate.
func (e *Evaluator) MaxEvaluate(s *game.State, u, k int, alpha float64, strategy []int) float64 {
	e.prepare(s, u, k)
	e.edges = append(e.edges[:0], e.fixed...)
	for _, w := range strategy {
		l := e.ws.LocalOf(w)
		if l < 0 {
			return game.InfiniteCost // outside the strategy space
		}
		e.edges = append(e.edges, int32(l))
	}
	e.ws.ResetBase(e.edges)
	ecc := e.ws.EccAll()
	if ecc >= graph.Unreachable {
		return game.InfiniteCost
	}
	return alpha*float64(len(strategy)) + float64(ecc)
}
