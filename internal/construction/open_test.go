package construction

import (
	"testing"

	"repro/internal/graph"
)

func TestBuildOpenTorusBasic(t *testing.T) {
	p := TorusParams{D: 2, L: 2, Delta: []int{3, 4}}
	ot, err := BuildOpenTorus(p)
	if err != nil {
		t.Fatal(err)
	}
	if ot.Graph.N() == 0 || ot.Graph.M() == 0 {
		t.Fatal("empty open torus")
	}
	// Open variant has no wrap-around: strictly fewer edges than the
	// closed torus with the same parameters.
	closed, err := BuildTorus(p)
	if err != nil {
		t.Fatal(err)
	}
	if ot.Graph.M() >= closed.State.Graph().M() {
		t.Fatalf("open torus has %d edges, closed has %d", ot.Graph.M(), closed.State.Graph().M())
	}
}

func TestOpenTorusLemma35(t *testing.T) {
	for _, p := range []TorusParams{
		{D: 2, L: 2, Delta: []int{3, 4}},
		{D: 2, L: 1, Delta: []int{4, 4}},
		{D: 3, L: 2, Delta: []int{2, 2, 3}},
	} {
		ot, err := BuildOpenTorus(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if x, y := ot.CheckLemma35(); x != -1 {
			t.Fatalf("%+v: Lemma 3.5 violated at %v vs %v: d=%d < bound=%d",
				p, ot.Coords[x], ot.Coords[y],
				ot.Graph.Distances(x)[y], ot.Lemma35Bound(x, y))
		}
	}
}

func TestOpenTorusVertexAt(t *testing.T) {
	p := TorusParams{D: 2, L: 2, Delta: []int{3, 4}}
	ot, err := BuildOpenTorus(p)
	if err != nil {
		t.Fatal(err)
	}
	// (ℓ·1, ℓ·1) = (2,2) is an intersection vertex (a=1 parity odd).
	v := ot.VertexAt([]int{2, 2})
	if v < 0 || !ot.Intersection[v] {
		t.Fatalf("lookup (2,2): %d", v)
	}
	if ot.VertexAt([]int{999, 999}) != -1 {
		t.Fatal("phantom vertex found")
	}
}

func TestCheckLemma36OnStar(t *testing.T) {
	// Star subdivided: u at the center of three length-3 legs. With
	// h = 3, L = the three leg tips satisfies d(u,tip)=3 and pairwise 6
	// >= 2h-2=4; reaching all tips within <3 needs 3 edges.
	g := graph.New(10)
	// legs: u=0; leg A: 1,2,3; leg B: 4,5,6; leg C: 7,8,9.
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(0, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 6)
	g.AddEdge(0, 7)
	g.AddEdge(7, 8)
	g.AddEdge(8, 9)
	L := []int{3, 6, 9}

	// A valid F: one edge per tip region → no violation.
	F := []graph.Edge{{U: 0, V: 3}, {U: 0, V: 6}, {U: 0, V: 9}}
	if err := CheckLemma36(g, 0, L, F, 3); err != nil {
		t.Fatal(err)
	}
	// Too few edges cannot reach all tips within < 3 — the check passes
	// vacuously (the conclusion's premise fails).
	if err := CheckLemma36(g, 0, L, F[:1], 3); err != nil {
		t.Fatal(err)
	}
	// Hypothesis violation: a tip too close.
	if err := CheckLemma36(g, 0, []int{1}, nil, 3); err == nil {
		t.Fatal("close vertex accepted in L")
	}
	// F edge not incident to u.
	if err := CheckLemma36(g, 0, L, []graph.Edge{{U: 1, V: 2}}, 3); err == nil {
		t.Fatal("non-incident F edge accepted")
	}
}

func TestFhSetOnClosedTorus(t *testing.T) {
	p := TorusParams{D: 2, L: 2, Delta: []int{3, 4}}
	tor, err := BuildTorus(p)
	if err != nil {
		t.Fatal(err)
	}
	// Pick any intersection vertex; F_h(v) should contain 2^d = 4
	// vertices at distance exactly h for h <= k* range.
	var v int = -1
	for i, is := range tor.Intersection {
		if is {
			v = i
			break
		}
	}
	if v == -1 {
		t.Fatal("no intersection vertex")
	}
	for _, h := range []int{1, 2, 3} {
		fh := tor.FhSet(v, h)
		if len(fh) != 4 {
			t.Fatalf("h=%d: |F_h|=%d, want 4", h, len(fh))
		}
		dist := tor.State.Graph().Distances(v)
		for _, w := range fh {
			if dist[w] != h {
				t.Fatalf("h=%d: d(v,%v)=%d, want exactly h (Lemma 3.3 equality)",
					h, tor.Coords[w], dist[w])
			}
		}
	}
}

func TestFhSetRejectsPathVertex(t *testing.T) {
	p := TorusParams{D: 2, L: 2, Delta: []int{3, 4}}
	tor, err := BuildTorus(p)
	if err != nil {
		t.Fatal(err)
	}
	var pathV = -1
	for i, is := range tor.Intersection {
		if !is {
			pathV = i
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FhSet on a path vertex did not panic")
		}
	}()
	tor.FhSet(pathV, 1)
}
