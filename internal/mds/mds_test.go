package mds

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestMinDominatingStar(t *testing.T) {
	g := gen.Star(8)
	set, _ := MinDominatingExtraAtMost(g, nil, g.N()+1)
	if len(set) != 1 || set[0] != 0 {
		t.Fatalf("star MDS=%v, want [0]", set)
	}
}

func TestMinDominatingPath(t *testing.T) {
	// Path on 6 vertices: domination number 2 (e.g. {1,4}).
	g := gen.Path(6)
	set, _ := MinDominatingExtraAtMost(g, nil, g.N()+1)
	if len(set) != 2 {
		t.Fatalf("P6 MDS size=%d (%v), want 2", len(set), set)
	}
	if !Dominates(g, set, nil) {
		t.Fatalf("P6 MDS %v does not dominate", set)
	}
}

func TestMinDominatingCycle(t *testing.T) {
	// C_9 has domination number 3.
	g := gen.Cycle(9)
	set, _ := MinDominatingExtraAtMost(g, nil, g.N()+1)
	if len(set) != 3 || !Dominates(g, set, nil) {
		t.Fatalf("C9 MDS=%v, want size 3", set)
	}
}

func TestMinDominatingComplete(t *testing.T) {
	g := gen.Complete(7)
	set, _ := MinDominatingExtraAtMost(g, nil, g.N()+1)
	if len(set) != 1 {
		t.Fatalf("K7 MDS=%v, want single vertex", set)
	}
}

func TestMinDominatingEmptyGraph(t *testing.T) {
	if got, _ := MinDominatingExtraAtMost(graph.New(0), nil, 1); got != nil {
		t.Fatalf("empty graph MDS=%v, want nil", got)
	}
	// Edgeless graph: every vertex must dominate itself.
	g := graph.New(4)
	set, _ := MinDominatingExtraAtMost(g, nil, g.N()+1)
	if len(set) != 4 {
		t.Fatalf("edgeless MDS=%v, want all 4 vertices", set)
	}
}

func TestForcedAlreadyDominates(t *testing.T) {
	g := gen.Star(6)
	set, _ := MinDominatingExtraAtMost(g, []int{0}, g.N()+1)
	if len(set) != 0 {
		t.Fatalf("forced star center should need no extras, got %v", set)
	}
}

func TestForcedPartialCoverage(t *testing.T) {
	// Path 0-1-2-3-4-5, forced {0}: N[0]={0,1}; remaining {2,3,4,5} need 1
	// more vertex (3 or 4 covers {2,3,4} / {3,4,5}) — actually vertex 3
	// covers {2,3,4}, leaving 5 uncovered → need vertex 4: N[4]={3,4,5},
	// leaves 2 uncovered. So optimum is 2 extras? No: {3} leaves 5, {4}
	// leaves 2 — single extra impossible; optimum 2 is wrong too — try
	// {2,5}? no wait {2,4}: N[2]={1,2,3}, N[4]={3,4,5} → covers all. So 2.
	g := gen.Path(6)
	set, _ := MinDominatingExtraAtMost(g, []int{0}, g.N()+1)
	if len(set) != 2 || !Dominates(g, set, []int{0}) {
		t.Fatalf("forced-path extras=%v, want size 2", set)
	}
}

func TestGreedyDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20; i++ {
		g := gen.RandomTree(40, rng)
		set := Greedy(g, nil)
		if !Dominates(g, set, nil) {
			t.Fatalf("greedy set %v does not dominate", set)
		}
	}
}

func TestGreedyWithForced(t *testing.T) {
	g := gen.Path(8)
	set := Greedy(g, []int{3})
	if !Dominates(g, set, []int{3}) {
		t.Fatalf("greedy+forced does not dominate: %v", set)
	}
	for _, v := range set {
		if v == 3 {
			t.Fatal("greedy result contains a forced vertex")
		}
	}
}

func TestDominates(t *testing.T) {
	g := gen.Path(4)
	if Dominates(g, []int{0}, nil) {
		t.Fatal("vertex 0 should not dominate P4")
	}
	if !Dominates(g, []int{1, 3}, nil) {
		t.Fatal("{1,3} should dominate P4")
	}
	if !Dominates(g, []int{1}, []int{3}) {
		t.Fatal("{1} with forced {3} should dominate P4")
	}
}

func TestBruteForceMatchesKnown(t *testing.T) {
	g := gen.Cycle(7) // γ(C7) = 3
	set := BruteForce(g, nil)
	if len(set) != 3 {
		t.Fatalf("brute C7=%v, want size 3", set)
	}
}

func TestBruteForceRejectsLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BruteForce accepted a huge graph")
		}
	}()
	BruteForce(gen.Path(30), nil)
}

func TestQuickSolverMatchesBruteForce(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 3 + int(sz%12)
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomTree(n, rng)
		for i := 0; i < n/3; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		exact, _ := MinDominatingExtraAtMost(g, nil, g.N()+1)
		brute := BruteForce(g, nil)
		return len(exact) == len(brute) && Dominates(g, exact, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSolverMatchesBruteForceForced(t *testing.T) {
	f := func(seed int64, sz, fRaw uint8) bool {
		n := 4 + int(sz%10)
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomTree(n, rng)
		forced := []int{int(fRaw) % n}
		exact, _ := MinDominatingExtraAtMost(g, forced, g.N()+1)
		brute := BruteForce(g, forced)
		return len(exact) == len(brute) && Dominates(g, exact, forced)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGreedyAtLeastExact(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 3 + int(sz%14)
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomTree(n, rng)
		greedy := Greedy(g, nil)
		exact, _ := MinDominatingExtraAtMost(g, nil, g.N()+1)
		return len(greedy) >= len(exact) && Dominates(g, greedy, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSolverModerateSize(t *testing.T) {
	// Performance smoke test: a 100-vertex ER graph solves quickly.
	rng := rand.New(rand.NewSource(9))
	g, err := gen.GNPConnected(100, 0.08, rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	set, _ := MinDominatingExtraAtMost(g, nil, g.N()+1)
	if !Dominates(g, set, nil) {
		t.Fatal("solver output does not dominate")
	}
	if len(set) == 0 || len(set) > 40 {
		t.Fatalf("implausible MDS size %d for ER(100,0.08)", len(set))
	}
}
