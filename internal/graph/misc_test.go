package graph

import (
	"strings"
	"testing"
)

func TestStringer(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if s := g.String(); !strings.Contains(s, "n=3") || !strings.Contains(s, "m=1") {
		t.Fatalf("String() = %q", s)
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
