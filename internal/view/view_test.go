package view

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
)

func TestExtractPathCenter(t *testing.T) {
	g := gen.Path(10)
	v := Extract(g, 5, 2)
	if v.Size() != 5 {
		t.Fatalf("view size=%d, want 5", v.Size())
	}
	if v.Orig[v.Center] != 5 {
		t.Fatalf("center maps to %d, want 5", v.Orig[v.Center])
	}
	if v.Dist[v.Center] != 0 {
		t.Fatal("center distance not 0")
	}
	front := v.Frontier()
	if len(front) != 2 {
		t.Fatalf("frontier size=%d, want 2", len(front))
	}
	seen := map[int]bool{}
	for _, f := range front {
		seen[v.Orig[f]] = true
	}
	if !seen[3] || !seen[7] {
		t.Fatalf("frontier globals wrong: %v", seen)
	}
}

func TestExtractRadiusZero(t *testing.T) {
	g := gen.Complete(5)
	v := Extract(g, 2, 0)
	if v.Size() != 1 || v.Orig[0] != 2 {
		t.Fatalf("radius-0 view: size=%d orig=%v", v.Size(), v.Orig)
	}
	if len(v.Frontier()) != 1 {
		t.Fatal("radius-0 frontier should be the center itself")
	}
}

func TestExtractWholeGraph(t *testing.T) {
	g := gen.Cycle(8)
	v := Extract(g, 0, 100)
	if !v.SeesAll(8) {
		t.Fatal("large-k view does not cover the graph")
	}
	if len(v.Frontier()) != 0 {
		t.Fatalf("frontier should be empty when k exceeds the eccentricity, got %v", v.Frontier())
	}
	if v.H.M() != g.M() {
		t.Fatalf("full view m=%d, want %d", v.H.M(), g.M())
	}
}

func TestExtractNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Extract with negative k did not panic")
		}
	}()
	Extract(gen.Path(3), 0, -1)
}

func TestViewInducedEdges(t *testing.T) {
	// Cycle of 6, view radius 2 around 0: vertices {0,1,2,4,5} wait —
	// ball(0,2) = {0,1,5,2,4}; induced edges: (0,1),(1,2),(0,5),(5,4).
	// Edge (2,4)? d(2,4)=2 in cycle6 — not an edge. Edges (2,3),(3,4) are
	// outside since 3 is not in the ball.
	g := gen.Cycle(6)
	v := Extract(g, 0, 2)
	if v.Size() != 5 {
		t.Fatalf("size=%d, want 5", v.Size())
	}
	if v.H.M() != 4 {
		t.Fatalf("induced edges=%d, want 4", v.H.M())
	}
}

// TestStrategyTranslation checks the id maps a responder translates
// strategies with: Local drops targets outside the view, Orig inverts it.
func TestStrategyTranslation(t *testing.T) {
	g := gen.Path(10)
	v := Extract(g, 5, 2)
	var back []int
	for _, w := range []int{4, 7, 9} { // 9 outside the view
		if l, ok := v.Local[w]; ok {
			back = append(back, v.Orig[l])
		}
	}
	if len(back) != 2 || back[0] != 4 || back[1] != 7 {
		t.Fatalf("round trip=%v", back)
	}
}

func TestQuickViewDistancesAgree(t *testing.T) {
	f := func(seed int64, sz, kRaw, uRaw uint8) bool {
		n := 4 + int(sz%25)
		k := 1 + int(kRaw%4)
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomTree(n, rng)
		// densify a little
		for i := 0; i < n/3; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		u := int(uRaw) % n
		v := Extract(g, u, k)
		globalDist := g.Distances(u)
		localDist := v.H.Distances(v.Center)
		for i, orig := range v.Orig {
			if v.Dist[i] != globalDist[orig] {
				return false
			}
			// Distances inside the induced subgraph must also agree.
			if localDist[i] != globalDist[orig] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFrontierExactlyK(t *testing.T) {
	f := func(seed int64, sz, kRaw, uRaw uint8) bool {
		n := 4 + int(sz%25)
		k := 1 + int(kRaw%4)
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomTree(n, rng)
		u := int(uRaw) % n
		v := Extract(g, u, k)
		front := map[int]bool{}
		for _, f := range v.Frontier() {
			front[f] = true
		}
		for i := range v.Orig {
			if (v.Dist[i] == k) != front[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickViewIsSubgraph(t *testing.T) {
	f := func(seed int64, sz, kRaw, uRaw uint8) bool {
		n := 4 + int(sz%20)
		k := int(kRaw % 5)
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomTree(n, rng)
		for i := 0; i < n/2; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		u := int(uRaw) % n
		v := Extract(g, u, k)
		for _, e := range v.H.Edges() {
			if !g.HasEdge(v.Orig[e.U], v.Orig[e.V]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
