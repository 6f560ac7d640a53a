package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestFromEdgesMatchesAddEdge checks, on every start-state family, that
// FromEdges(n, g.Edges()) builds the neighbour lists — order included —
// that AddEdge builds from the same edges in the same order, and that the
// slab those lists share does not alias: a random run of AddEdge and
// RemoveEdge keeps the two graphs' lists equal, so growing or shrinking
// one vertex's list never writes into another's.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	const n = 40
	families := map[string]func(rng *rand.Rand) *graph.Graph{
		"tree": func(rng *rand.Rand) *graph.Graph { return gen.RandomTree(n, rng) },
		"gnp":  func(rng *rand.Rand) *graph.Graph { return gen.GNP(n, 0.15, rng) },
		"grid-delete": func(rng *rand.Rand) *graph.Graph {
			g, err := gen.RandomConnectedGrid(n, 0.2, rng, 1000)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"pa-tree": func(rng *rand.Rand) *graph.Graph { return gen.PreferentialAttachmentTree(n, rng) },
		"random-regular": func(rng *rand.Rand) *graph.Graph {
			g, ok := gen.RandomRegular(n, 3, rng, 100)
			if !ok {
				t.Fatal("no 3-regular graph")
			}
			return g
		},
	}
	for name, family := range families {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			edges := family(rng).Edges()
			got := graph.FromEdges(n, edges)
			want := graph.New(n)
			for _, e := range edges {
				want.AddEdge(e.U, e.V)
			}
			if err := sameLists(got, want); err != nil {
				t.Fatalf("%s seed %d: %s", name, seed, err)
			}
			for step := 0; step < 200; step++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if rng.Intn(2) == 0 {
					got.AddEdge(u, v)
					want.AddEdge(u, v)
				} else if w := want.Neighbors(u); len(w) > 0 {
					v = int(w[rng.Intn(len(w))])
					got.RemoveEdge(u, v)
					want.RemoveEdge(u, v)
				}
				if err := sameLists(got, want); err != nil {
					t.Fatalf("%s seed %d step %d (%d,%d): %s", name, seed, step, u, v, err)
				}
			}
		}
	}
}

// sameLists reports the first difference between two graphs' edge counts
// and neighbour lists, or nil.
func sameLists(got, want *graph.Graph) error {
	if got.M() != want.M() {
		return fmt.Errorf("m = %d, want %d", got.M(), want.M())
	}
	for v := 0; v < want.N(); v++ {
		if g, w := got.Neighbors(v), want.Neighbors(v); !slices.Equal(g, w) {
			return fmt.Errorf("Neighbors(%d) = %v, want %v", v, g, w)
		}
	}
	return nil
}

// TestFromEdgesRejectsUnorderedEdges checks the precondition that lets
// FromEdges skip AddEdge's duplicate scan: edges out of (U, V) order, a
// repeat, U ≥ V or a vertex out of range panic.
func TestFromEdgesRejectsUnorderedEdges(t *testing.T) {
	for _, edges := range [][]graph.Edge{
		{{U: 0, V: 2}, {U: 0, V: 1}},
		{{U: 1, V: 2}, {U: 0, V: 3}},
		{{U: 0, V: 1}, {U: 0, V: 1}},
		{{U: 2, V: 1}},
		{{U: 1, V: 1}},
		{{U: 0, V: 4}},
		{{U: -1, V: 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromEdges(4, %v) did not panic", edges)
				}
			}()
			graph.FromEdges(4, edges)
		}()
	}
}
