// SUMNCG frontier demo: Proposition 2.2's conservative behavior. In the
// SUM variant a player must not push any frontier vertex (at distance
// exactly k in her view) beyond distance k — an adversarial tail of
// unseen vertices could hang off it. Within that guard Δ sums over the
// whole view, frontier included. This example shows a move the guard
// rejects, a frontier-safe swap, and contrasts MAXNCG where the same
// player happily rewires.
//
// Run with: go run ./examples/sumncg-frontier
package main

import (
	"fmt"

	ncg "repro"
)

func main() {
	// A path 0-1-2-3-4-5-6; every edge owned by its left endpoint.
	// Player 3 sits in the middle with k=2: she sees {1,2,3,4,5} and the
	// frontier is {1,5}.
	s := ncg.FromGraphLowOwners(ncg.Path(7))
	const u, k, alpha = 3, 2, 0.4

	v := ncg.ExtractView(s.Graph(), u, k)
	fmt.Printf("player %d, k=%d: sees %d vertices, frontier size %d\n",
		u, k, v.Size(), len(v.Frontier()))

	// Dropping the bought edge (3,4) cuts 4 and the frontier vertex 5 off:
	drop := []int{} // buy nothing: severs the whole right side she owns
	delta := ncg.SumDelta(s, u, k, alpha, drop)
	fmt.Printf("Δ(drop (3,4)) = %v → rejected (unbounded worst case: hidden\n", delta)
	fmt.Println("  vertices could hang behind the frontier vertex 5)")

	// A frontier-safe move: swap (3,4) for (3,5). 4 stays within k via 5,
	// one step farther (2); the frontier vertex 5 comes one step closer (1).
	// Summed over the whole view the two cancel: Δ = 0, no gain.
	swap := []int{5}
	delta = ncg.SumDelta(s, u, k, alpha, swap)
	fmt.Printf("Δ(swap (3,4)→(3,5)) = %+.2f → %s\n", delta,
		verdict(delta < 0))

	// MAXNCG has no such guard (Prop. 2.1: the worst case IS the view):
	r := ncg.MaxBestResponse(s, u, k, alpha)
	fmt.Printf("\nMAXNCG best response for player %d: buy %v (cost %.2f vs current %.2f)\n",
		u, r.Strategy, r.Cost, r.CurrentCost)

	// Run full SUMNCG dynamics: at α = 0.4 < 1 every missing edge saves
	// more than it costs, so the players buy shortcuts until the network
	// is complete (diameter 1), SUMNCG's equilibrium for α < 1.
	cfg := ncg.DefaultConfig(ncg.SumNCG, alpha, k)
	res := ncg.Run(s, cfg)
	fmt.Printf("\nSUMNCG dynamics: %s after %d rounds; final diameter %d\n",
		res.Status, res.Rounds, res.FinalStats.Diameter)
}

func verdict(improving bool) string {
	if improving {
		return "improving, allowed"
	}
	return "not improving"
}
