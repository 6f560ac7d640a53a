package graph

import (
	"math/rand"
	"testing"
)

// randomGraph builds a connected-ish random graph for property tests.
func randomDirtyGraph(n int, extra int, rng *rand.Rand) *Graph {
	g := New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	for i := 0; i < extra; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

// TestMultiBFSWithinMatchesUnion checks the multi-source kernel against
// the union of per-source bounded BFS runs: same visited set, and each
// distance is the minimum over sources.
func TestMultiBFSWithinMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		g := randomDirtyGraph(n, rng.Intn(2*n), rng)
		k := rng.Intn(5)
		nsrc := 1 + rng.Intn(4)
		srcs := make([]int32, nsrc)
		for i := range srcs {
			srcs[i] = int32(rng.Intn(n))
		}
		// Reference: per-source bounded BFS, min distance per vertex.
		want := make(map[int32]int)
		dist := make([]int, n)
		for _, src := range srcs {
			for _, v := range g.BFSWithin(int(src), k, dist) {
				if d, ok := want[v]; !ok || dist[v] < d {
					want[v] = dist[v]
				}
			}
		}
		s := new(Scratch)
		got := g.MultiBFSWithinScratch(srcs, k, s)
		if len(got) != len(want) {
			t.Fatalf("trial %d: visited %d vertices, want %d", trial, len(got), len(want))
		}
		for _, v := range got {
			if d, ok := want[v]; !ok || s.Dist(int(v)) != d {
				t.Fatalf("trial %d: vertex %d dist=%d, want %d (present=%v)",
					trial, v, s.Dist(int(v)), d, ok)
			}
		}
	}
}

func TestMultiBFSWithinEdgeCases(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	s := new(Scratch)
	if got := g.MultiBFSWithinScratch(nil, 3, s); len(got) != 0 {
		t.Fatalf("empty source set visited %d vertices", len(got))
	}
	// Duplicate sources count once; radius 0 visits only the sources.
	got := g.MultiBFSWithinScratch([]int32{1, 1, 3}, 0, s)
	if len(got) != 2 {
		t.Fatalf("radius-0 dedup visited %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative radius did not panic")
		}
	}()
	g.MultiBFSWithinScratch([]int32{0}, -1, s)
}
