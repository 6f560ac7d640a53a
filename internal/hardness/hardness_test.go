package hardness

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/mds"
)

func TestBuildRejectsBadInstances(t *testing.T) {
	if _, err := Build(gen.Path(0)); err == nil {
		t.Fatal("empty graph accepted")
	}
	dg := gen.Path(5)
	dg.RemoveEdge(2, 3)
	if _, err := Build(dg); err == nil {
		t.Fatal("disconnected graph accepted")
	}
	if _, err := Build(gen.Path(3)); err != nil {
		t.Fatal(err)
	}
}

func TestInstanceShape(t *testing.T) {
	g := gen.Star(6)
	in, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if in.Joiner != 6 || in.State.N() != 7 {
		t.Fatalf("joiner=%d n=%d", in.Joiner, in.State.N())
	}
	if in.State.BoughtCount(in.Joiner) != 6 {
		t.Fatalf("joiner buys %d edges, want 6", in.State.BoughtCount(in.Joiner))
	}
	if in.State.Graph().Degree(in.Joiner) != 6 {
		t.Fatal("joiner not adjacent to everyone")
	}
	if err := in.State.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinerBestResponseIsDominatingSet(t *testing.T) {
	// On a star the minimum dominating set is the center: the joiner
	// should keep exactly one edge.
	in, err := Build(gen.Star(10))
	if err != nil {
		t.Fatal(err)
	}
	r := in.JoinerBestResponse(2)
	set, dominates := in.DominatingSetFromResponse(r.Strategy)
	if !dominates {
		t.Fatalf("response %v does not dominate", r.Strategy)
	}
	if len(set) != 1 || set[0] != 0 {
		t.Fatalf("star best response=%v, want the center", set)
	}
}

func TestDominationNumberMatchesSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(10)
		g := gen.RandomTree(n, rng)
		// Keep γ < n/2 so the reduction's cost calculus is strict: pad
		// with a dominating-friendly star overlay when needed.
		dom, _ := mds.MinDominatingExtraAtMost(g, nil, g.N()+1)
		gamma := len(dom)
		if 2*gamma >= n {
			continue
		}
		got, err := DominationNumberViaBestResponse(g, 2)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != gamma {
			t.Fatalf("trial %d: reduction gives %d, solver gives %d", trial, got, gamma)
		}
	}
}

func TestDominationNumberVariousK(t *testing.T) {
	// The joiner sees everything at any k >= 1 (she is adjacent to all
	// players), so the answer must not depend on k.
	g := gen.Path(9) // γ(P9) = 3
	for _, k := range []int{1, 2, 5, 1000} {
		got, err := DominationNumberViaBestResponse(g, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != 3 {
			t.Fatalf("k=%d: γ=%d, want 3", k, got)
		}
	}
}

func TestDominatingSetFromResponseRejectsJoiner(t *testing.T) {
	in, err := Build(gen.Path(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := in.DominatingSetFromResponse([]int{in.Joiner}); ok {
		t.Fatal("self-reference accepted")
	}
	if _, ok := in.DominatingSetFromResponse([]int{0}); ok {
		t.Fatal("non-dominating set accepted") // 0 does not dominate P4
	}
}

func TestMaxAlpha(t *testing.T) {
	in, err := Build(gen.Path(8))
	if err != nil {
		t.Fatal(err)
	}
	if in.MaxAlpha() != 0.25 {
		t.Fatalf("α=%v, want 2/8", in.MaxAlpha())
	}
}
