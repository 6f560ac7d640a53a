package swap

import (
	"math/rand"
	"testing"

	"repro/internal/game"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Pins the workspace-backed BestSwap against the retained clone-and-BFS
// reference (reference_test.go) on randomized states: same move, same found
// flag, at every state best-swap dynamics actually visits.

func diffGraphs(rng *rand.Rand) []*graph.Graph {
	return []*graph.Graph{
		gen.Path(8),
		gen.Cycle(9),
		gen.Star(8),
		gen.Grid(3, 4),
		gen.Torus(3, 3),
		gen.RandomTree(12, rng),
		gen.RandomTree(18, rng),
		gen.GNP(12, 0.3, rng),
	}
}

func TestBestSwapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for gi, g := range diffGraphs(rng) {
		for _, obj := range []Objective{MaxEcc, SumDist} {
			s := game.FromGraphRandomOwners(g.Clone(), rng)
			for _, k := range []int{1, 2, 3, 1000} {
				// Walk the dynamics on the reference move so both
				// implementations see every intermediate state.
				for step := 0; step < 3; step++ {
					var applied bool
					for u := 0; u < s.N(); u++ {
						got, gotOK := BestSwap(s, u, k, obj)
						want, wantOK := refBestSwap(s, u, k, obj)
						if gotOK != wantOK || got != want {
							t.Fatalf("BestSwap[g=%d obj=%d u=%d k=%d step=%d]: (%+v,%v), reference (%+v,%v)",
								gi, obj, u, k, step, got, gotOK, want, wantOK)
						}
						if wantOK && !applied {
							Apply(s, want)
							applied = true
						}
					}
					if !applied {
						break
					}
				}
			}
		}
	}
}

func TestBestSwapPoolReuse(t *testing.T) {
	// Back-to-back calls with different ball sizes must not leak state
	// through the pooled workspace.
	rng := rand.New(rand.NewSource(7))
	big := game.FromGraphRandomOwners(gen.RandomTree(30, rng), rng)
	small := game.FromGraphRandomOwners(gen.Path(5), rng)
	for i := 0; i < 10; i++ {
		s, n := big, 30
		if i%2 == 1 {
			s, n = small, 5
		}
		u := i % n
		got, gotOK := BestSwap(s, u, 2, SumDist)
		want, wantOK := refBestSwap(s, u, 2, SumDist)
		if gotOK != wantOK || got != want {
			t.Fatalf("iteration %d: (%+v,%v), reference (%+v,%v)", i, got, gotOK, want, wantOK)
		}
	}
}
