package game

import "repro/internal/graph"

// InfiniteCost is returned for players disconnected from part of the
// network; it dominates every finite cost.
const InfiniteCost = float64(graph.Unreachable)

// PlayerCost returns the cost of player u under the given variant and α:
// α·|σ_u| plus eccentricity (Max) or status (Sum). Disconnected players pay
// at least InfiniteCost.
func PlayerCost(s *State, variant Variant, alpha float64, u int) float64 {
	build := alpha * float64(s.BoughtCount(u))
	switch variant {
	case Max:
		return build + float64(s.g.Eccentricity(u))
	case Sum:
		return build + float64(s.g.SumDistances(u))
	default:
		panic("game: unknown variant")
	}
}

// AllPlayerCosts returns every player's cost, reading the distance terms
// off one pass over the network's neighbourhood powers (graph.PowerStats).
func AllPlayerCosts(s *State, variant Variant, alpha float64) []float64 {
	var usage []int
	switch variant {
	case Max:
		usage = s.g.AllEccentricities()
	case Sum:
		usage = s.g.AllSumDistances()
	default:
		panic("game: unknown variant")
	}
	out := make([]float64, s.N())
	for u := range out {
		out[u] = alpha*float64(s.BoughtCount(u)) + float64(usage[u])
	}
	return out
}

// SocialCost returns the sum of all player costs.
func SocialCost(s *State, variant Variant, alpha float64) float64 {
	total := 0.0
	for _, c := range AllPlayerCosts(s, variant, alpha) {
		total += c
	}
	return total
}

// StarSocialCost returns the social cost of the spanning star on n players
// (each leaf buys its edge to the center — ownership does not matter for
// the social cost, which charges α once per bought edge).
func StarSocialCost(n int, variant Variant, alpha float64) float64 {
	if n <= 1 {
		return 0
	}
	build := alpha * float64(n-1)
	switch variant {
	case Max:
		if n == 2 {
			return build + 2 // both endpoints have eccentricity 1
		}
		// Center eccentricity 1, each of the n-1 leaves eccentricity 2.
		return build + 1 + 2*float64(n-1)
	case Sum:
		// Center status n-1; each leaf status 1 + 2(n-2).
		return build + float64(n-1) + float64(n-1)*float64(1+2*(n-2))
	default:
		panic("game: unknown variant")
	}
}

// CliqueSocialCost returns the social cost of the complete graph on n
// players (every distance is 1).
func CliqueSocialCost(n int, variant Variant, alpha float64) float64 {
	if n <= 1 {
		return 0
	}
	build := alpha * float64(n) * float64(n-1) / 2
	usage := float64(n) * float64(n-1)
	if variant == Max {
		usage = float64(n) // eccentricity 1 per player
	}
	return build + usage
}

// OptimumSocialCost returns the social-optimum baseline used to normalize
// equilibrium quality. For α ≥ 1 the spanning star is optimal in both
// variants (§3, §4: "the spanning star is the social optimum"); for α < 1
// denser graphs win, and the complete graph is optimal at α → 0. We take
// the exact minimum of the two closed forms, which is the standard
// denominator for PoA experiments.
func OptimumSocialCost(n int, variant Variant, alpha float64) float64 {
	star := StarSocialCost(n, variant, alpha)
	clique := CliqueSocialCost(n, variant, alpha)
	if clique < star {
		return clique
	}
	return star
}

// Quality returns SocialCost/Optimum — the "quality of equilibrium" plotted
// in Figures 6 and 7. It returns +Inf-like InfiniteCost for disconnected
// states.
func Quality(s *State, variant Variant, alpha float64) float64 {
	opt := OptimumSocialCost(s.N(), variant, alpha)
	if opt == 0 {
		return 1
	}
	return SocialCost(s, variant, alpha) / opt
}

// Unfairness returns the ratio between the highest and lowest player cost
// (Figure 9). It returns 1 for n = 0.
func Unfairness(s *State, variant Variant, alpha float64) float64 {
	costs := AllPlayerCosts(s, variant, alpha)
	if len(costs) == 0 {
		return 1
	}
	lo, hi := costs[0], costs[0]
	for _, c := range costs[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if lo == 0 {
		return InfiniteCost
	}
	return hi / lo
}
