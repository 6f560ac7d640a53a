package classic

import (
	"math/rand"
	"testing"

	"repro/internal/game"
	"repro/internal/gen"
)

func TestStarIsNEMaxThreshold(t *testing.T) {
	// Exact audit vs closed form across a grid.
	for _, n := range []int{4, 6, 9} {
		for _, alpha := range []float64{0.05, 1.0 / float64(n-2) * 0.9, 1.0/float64(n-2) + 0.01, 0.8, 2} {
			want := StarIsNEMax(n, alpha)
			got := IsNE(StarState(n), game.Max, alpha)
			if got != want {
				t.Fatalf("n=%d α=%v: audit=%v formula=%v", n, alpha, got, want)
			}
		}
	}
}

func TestStarIsNESumThreshold(t *testing.T) {
	for _, n := range []int{4, 6} {
		for _, alpha := range []float64{0.5, 0.99, 1.01, 3} {
			want := StarIsNESum(n, alpha)
			got := IsNE(StarState(n), game.Sum, alpha)
			if got != want {
				t.Fatalf("n=%d α=%v: audit=%v formula=%v", n, alpha, got, want)
			}
		}
	}
}

func TestCliqueIsNEThresholds(t *testing.T) {
	for _, n := range []int{3, 5} {
		for _, alpha := range []float64{0.5, 0.99, 1.01, 2} {
			if got, want := IsNE(CliqueState(n), game.Sum, alpha), CliqueIsNESum(alpha); got != want {
				t.Fatalf("SUM clique n=%d α=%v: audit=%v formula=%v", n, alpha, got, want)
			}
			if got, want := IsNE(CliqueState(n), game.Max, alpha), CliqueIsNEMax(n, alpha); got != want {
				t.Fatalf("MAX clique n=%d α=%v: audit=%v formula=%v", n, alpha, got, want)
			}
		}
	}
}

func TestBestResponseMatchesLocalAtFullRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		n := 6 + rng.Intn(8)
		s := game.FromGraphRandomOwners(gen.RandomTree(n, rng), rng)
		u := rng.Intn(n)
		r := BestResponse(s, u, game.Max, 1.5)
		if r.Improving && r.Cost >= r.CurrentCost {
			t.Fatalf("trial %d: inconsistent response %+v", trial, r)
		}
	}
}

func TestIsNEAfterClassicDynamics(t *testing.T) {
	// Iterate classical best responses to a fixed point by hand and
	// verify stability.
	rng := rand.New(rand.NewSource(4))
	s := game.FromGraphRandomOwners(gen.RandomTree(12, rng), rng)
	for round := 0; round < 50; round++ {
		moved := false
		for u := 0; u < s.N(); u++ {
			r := BestResponse(s, u, game.Max, 2)
			if r.Improving {
				s.SetStrategy(u, r.Strategy)
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	if !IsNE(s, game.Max, 2) {
		t.Fatal("fixed point is not a NE")
	}
}

func TestStarCliqueStateShapes(t *testing.T) {
	star := StarState(6)
	if star.Graph().MaxDegree() != 5 || star.TotalBought() != 5 {
		t.Fatal("star shape")
	}
	clique := CliqueState(5)
	if clique.Graph().M() != 10 || clique.TotalBought() != 10 {
		t.Fatal("clique shape")
	}
	if err := star.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := clique.Validate(); err != nil {
		t.Fatal(err)
	}
}
