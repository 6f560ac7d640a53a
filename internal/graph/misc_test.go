package graph

import (
	"strings"
	"testing"
)

func TestSortedNeighbors(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	got := g.SortedNeighbors(2)
	want := []int{0, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Returned slice is a copy: mutating it must not corrupt the graph.
	got[0] = 99
	if !g.HasEdge(2, 0) {
		t.Fatal("mutation leaked")
	}
}

func TestStringer(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if s := g.String(); !strings.Contains(s, "n=3") || !strings.Contains(s, "m=1") {
		t.Fatalf("String() = %q", s)
	}
}

func TestComplementSize(t *testing.T) {
	g := New(5)
	if g.ComplementSize() != 10 {
		t.Fatalf("empty complement = %d", g.ComplementSize())
	}
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.ComplementSize() != 8 {
		t.Fatalf("complement = %d", g.ComplementSize())
	}
	k := complete(5)
	if k.ComplementSize() != 0 {
		t.Fatalf("K5 complement = %d", k.ComplementSize())
	}
}

func TestGirthTwoVertexCycleImpossible(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	if g.Girth() != Unreachable {
		t.Fatal("single edge has a cycle?")
	}
}

func TestEccentricityIsolated(t *testing.T) {
	g := New(3)
	if g.Eccentricity(0) < Unreachable {
		t.Fatal("isolated vertex has finite eccentricity")
	}
	if g.SumDistances(0) < Unreachable {
		t.Fatal("isolated vertex has finite status")
	}
}
