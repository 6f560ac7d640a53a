// Package classic implements the full-knowledge baselines the paper
// compares against: the classical MAXNCG of Demaine et al. /
// Mihalák–Schlegel and the classical SUMNCG of Fabrikant et al. It
// provides exact best responses without the locality machinery and
// canonical equilibrium facts (star/clique stability thresholds).
package classic

import (
	"repro/internal/bestresponse"
	"repro/internal/game"
)

// BestResponse computes an exact full-knowledge best response: the
// locality responder with a view radius covering the whole network
// (Proposition 2.1 makes the two games coincide when the view is
// complete, which is the bridge the paper's experiments use as k=1000).
func BestResponse(s *game.State, u int, variant game.Variant, alpha float64) bestresponse.Response {
	k := s.N() // a radius-n ball covers any connected n-vertex graph
	switch variant {
	case game.Max:
		return bestresponse.MaxBestResponse(s, u, k, alpha)
	case game.Sum:
		r := bestresponse.SumBestResponseExhaustive(s, u, k, alpha, 20)
		if r.Feasible {
			return r.Response
		}
		return bestresponse.SumGreedyResponse(s, u, k, alpha)
	default:
		panic("classic: unknown variant")
	}
}

// IsNE audits full-knowledge Nash stability with the exact responder
// (exact for MAXNCG; exact for SUMNCG up to the view-size gate).
func IsNE(s *game.State, variant game.Variant, alpha float64) bool {
	for u := 0; u < s.N(); u++ {
		if BestResponse(s, u, variant, alpha).Improving {
			return false
		}
	}
	return true
}

// StarState builds the canonical star profile: each leaf buys its edge
// to center 0 (the social optimum for α >= 1 in both variants, §3–4).
func StarState(n int) *game.State {
	s := game.NewState(n)
	for v := 1; v < n; v++ {
		s.Buy(v, 0)
	}
	return s
}

// CliqueState builds the complete-graph profile with each edge bought by
// its lower endpoint (the social optimum as α → 0).
func CliqueState(n int) *game.State {
	s := game.NewState(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			s.Buy(u, v)
		}
	}
	return s
}

// StarIsNEMax reports whether the spanning star is a Nash equilibrium of
// full-knowledge MAXNCG at this α. A leaf's options: drop her edge
// (disconnects, infinite cost), or buy j >= 1 extra edges (cost grows;
// eccentricity can only drop from 2 to 1 by connecting to everyone).
// Buying all n-2 other edges turns her into a center: saves 1 usage for
// α(n-2) extra building, improving iff α(n-2) < 1. The center never
// benefits from buying. Hence the star is a NE iff α >= 1/(n-2)
// (and always for n <= 3 where eccentricity is already 1..2).
func StarIsNEMax(n int, alpha float64) bool {
	if n <= 3 {
		return true
	}
	return alpha >= 1/float64(n-2)
}

// StarIsNESum reports whether the spanning star is a Nash equilibrium of
// full-knowledge SUMNCG at this α. A leaf buying one extra edge towards
// another leaf saves exactly 1 on her status (distance 2 → 1) at price
// α, so the star is a NE iff α >= 1 (the classical fact from Fabrikant
// et al.: the star is stable for α >= 1).
func StarIsNESum(n int, alpha float64) bool {
	if n <= 2 {
		return true
	}
	return alpha >= 1
}

// CliqueIsNESum reports whether the clique profile is a Nash equilibrium
// of SUMNCG: dropping one bought edge saves α and costs exactly 1 of
// status, so the clique is stable iff α <= 1.
func CliqueIsNESum(alpha float64) bool { return alpha <= 1 }

// CliqueIsNEMax reports whether the lower-owner clique profile is a Nash
// equilibrium of MAXNCG. Unlike SUMNCG, a player can drop ALL BUT ONE of
// her bought edges in a single move and still sit at eccentricity 2, so
// the binding constraint is player 0's (who buys n-1 edges): she saves
// (n-2)·α for +1 eccentricity. Stability therefore requires
// α <= 1/(n-2) for n >= 3 (n <= 2 is trivially stable).
func CliqueIsNEMax(n int, alpha float64) bool {
	if n <= 2 {
		return true
	}
	return alpha <= 1/float64(n-2)
}
