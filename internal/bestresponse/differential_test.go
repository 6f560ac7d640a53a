package bestresponse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/game"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The tests in this file pin the pooled Evaluator against the retained
// reference implementations (reference_test.go) on randomized instances: the
// fast path must return byte-identical strategies and Improving flags,
// and costs equal up to float-summation noise. Run under -race in CI.

// costTol absorbs the difference between the reference's float fold and
// the Evaluator's integer aggregation — at most a few ulps for any
// realistic α, never enough to flip an epsilon=1e-9 comparison.
const costTol = 1e-6

func costsEqual(a, b float64) bool {
	if a == b {
		return true
	}
	if a >= game.InfiniteCost || b >= game.InfiniteCost {
		return a >= game.InfiniteCost && b >= game.InfiniteCost
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= costTol*scale
}

func sameStrategy(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkResponse(t *testing.T, tag string, got, want Response) {
	t.Helper()
	if !sameStrategy(got.Strategy, want.Strategy) {
		t.Fatalf("%s: strategy %v, reference %v", tag, got.Strategy, want.Strategy)
	}
	if got.Improving != want.Improving {
		t.Fatalf("%s: improving %v, reference %v", tag, got.Improving, want.Improving)
	}
	if !costsEqual(got.Cost, want.Cost) {
		t.Fatalf("%s: cost %v, reference %v", tag, got.Cost, want.Cost)
	}
	if !costsEqual(got.CurrentCost, want.CurrentCost) {
		t.Fatalf("%s: current cost %v, reference %v", tag, got.CurrentCost, want.CurrentCost)
	}
}

// diffGraphs builds a batch of small test graphs across every generator
// family, deterministic per seed.
func diffGraphs(rng *rand.Rand) []*graph.Graph {
	gs := []*graph.Graph{
		gen.Path(7),
		gen.Cycle(9),
		gen.Star(8),
		gen.Complete(6),
		gen.Grid(3, 4),
		gen.Torus(3, 4),
		gen.Hypercube(3),
		gen.CompleteBipartite(3, 4),
		gen.Caterpillar(4, 2),
		gen.RandomTree(12, rng),
		gen.RandomTree(20, rng),
		gen.PreferentialAttachmentTree(15, rng),
		gen.GNP(12, 0.25, rng),
		gen.GNP(10, 0.5, rng),
	}
	if rr, ok := gen.RandomRegular(10, 3, rng, 50); ok {
		gs = append(gs, rr)
	}
	return gs
}

func TestEvaluatorMatchesReference(t *testing.T) {
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

					// Arbitrary candidate strategies for the evaluation
					// entry points, including out-of-view targets.
					cands := [][]int{
						{},
						s.Strategy(u),
						{rng.Intn(s.N())},
						{rng.Intn(s.N()), rng.Intn(s.N())},
					}
					for _, cand := range cands {
						if got, want := SumDelta(s, u, k, alpha, cand), refSumDelta(s, u, k, alpha, cand); !costsEqual(got, want) {
							t.Fatalf("%s(%v): %v, reference %v", tag("SumDelta"), cand, got, want)
						}
						if got, want := MaxEvaluate(s, u, k, alpha, cand), refMaxEvaluate(s, u, k, alpha, cand); !costsEqual(got, want) {
							t.Fatalf("%s(%v): %v, reference %v", tag("MaxEvaluate"), cand, got, want)
						}
					}

					checkResponse(t, tag("SumGreedyResponse"),
						SumGreedyResponse(s, u, k, alpha), refSumGreedyResponse(s, u, k, alpha))
					checkResponse(t, tag("MaxGreedyResponse"),
						MaxGreedyResponse(s, u, k, alpha), refMaxGreedyResponse(s, u, k, alpha))
					checkResponse(t, tag("MaxBestResponse"),
						MaxBestResponse(s, u, k, alpha), refMaxBestResponse(s, u, k, alpha))

					got := SumBestResponseExhaustive(s, u, k, alpha, 12)
					want := refSumBestResponseExhaustive(s, u, k, alpha, 12)
					if got.Feasible != want.Feasible {
						t.Fatalf("%s: feasible %v, reference %v", tag("SumBestResponseExhaustive"), got.Feasible, want.Feasible)
					}
					if got.Feasible {
						checkResponse(t, tag("SumBestResponseExhaustive"), got.Response, want.Response)
					}
				}
			}
		}
	}
}

// radiusZeroCases visits every player of every test graph at k = 0,
// where the view is {u} and the current targets lie outside it: owners of
// no edge, of one (the only case with a finite move) and of several, at
// an α that makes dropping the sole edge pay and at α = 0, where it does
// not.
func radiusZeroCases(t *testing.T, check func(tag string, s *game.State, u int, alpha float64)) {
	rng := rand.New(rand.NewSource(20260929))
	bought := map[int]bool{}
	for gi, g := range diffGraphs(rng) {
		s := game.FromGraphRandomOwners(g, rng)
		for u := 0; u < s.N(); u++ {
			bought[min(s.BoughtCount(u), 2)] = true
			for _, alpha := range []float64{0, 0.5, 2.7} {
				check(fmt.Sprintf("[g=%d u=%d k=0 a=%g]", gi, u, alpha), s, u, alpha)
			}
		}
	}
	if len(bought) != 3 {
		t.Fatalf("players owning 0, 1 and >= 2 edges not all covered: %v", bought)
	}
}

// TestGreedyRadiusZeroMatchesReference pins the radius-zero answer of the
// greedy responders, which once ran on the references themselves.
func TestGreedyRadiusZeroMatchesReference(t *testing.T) {
	radiusZeroCases(t, func(tag string, s *game.State, u int, alpha float64) {
		checkResponse(t, "SumGreedyResponse"+tag,
			SumGreedyResponse(s, u, 0, alpha), refSumGreedyResponse(s, u, 0, alpha))
		checkResponse(t, "MaxGreedyResponse"+tag,
			MaxGreedyResponse(s, u, 0, alpha), refMaxGreedyResponse(s, u, 0, alpha))
	})
}

// TestEvaluatorMatchesReferenceUnderDynamics evolves states by applying
// the REFERENCE responses for several rounds, comparing both
// implementations at every intermediate state — exactly the sequence of
// states a sweep visits, so agreement here implies byte-identical sweep
// checkpoints.
func TestEvaluatorMatchesReferenceUnderDynamics(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	type cfg struct {
		k     int
		alpha float64
		max   bool
	}
	cfgs := []cfg{{2, 1.5, true}, {2, 1.5, false}, {3, 0.8, true}, {1, 2.0, false}}
	for _, c := range cfgs {
		g := gen.RandomTree(14, rng)
		s := game.FromGraphRandomOwners(g, rng)
		for round := 0; round < 4; round++ {
			for u := 0; u < s.N(); u++ {
				var got, want Response
				if c.max {
					got = MaxBestResponse(s, u, c.k, c.alpha)
					want = refMaxBestResponse(s, u, c.k, c.alpha)
				} else {
					got = SumGreedyResponse(s, u, c.k, c.alpha)
					want = refSumGreedyResponse(s, u, c.k, c.alpha)
				}
				tag := fmt.Sprintf("dynamics[round=%d u=%d k=%d a=%g max=%v]", round, u, c.k, c.alpha, c.max)
				checkResponse(t, tag, got, want)
				if want.Improving {
					s.SetStrategy(u, want.Strategy)
				}
			}
		}
	}
}
