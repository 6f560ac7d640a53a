package construction

import "testing"

func TestBuildOpenTorusBasic(t *testing.T) {
	p := TorusParams{D: 2, L: 2, Delta: []int{3, 4}}
	ot, err := BuildOpenTorus(p)
	if err != nil {
		t.Fatal(err)
	}
	if ot.Graph.N() == 0 || ot.Graph.M() == 0 {
		t.Fatal("empty open torus")
	}
	// (ℓ·1, ℓ·1) = (2, 2) is an intersection vertex (a = 1, odd parity).
	found := false
	for v, c := range ot.Coords {
		if c[0] == 2 && c[1] == 2 {
			found = ot.Intersection[v]
		}
	}
	if !found {
		t.Fatal("(2, 2) is not an intersection vertex of the open torus")
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
				ot.Graph.Distances(x)[y], ot.lemma35Bound(x, y))
		}
	}
}
