package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// GNP returns an Erdős–Rényi random graph G(n,p): every unordered vertex
// pair becomes an edge independently with probability p, drawn in the
// ascending (u, v) order graph.FromEdges takes.
func GNP(n int, p float64, rng *rand.Rand) *graph.Graph {
	if p < 0 || p > 1 {
		panic("gen: GNP probability out of [0,1]")
	}
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	return graph.FromEdges(n, edges)
}

// GNPConnected samples G(n,p) graphs until a connected one appears,
// mirroring §5.2: "Any remaining unconnected graph was discarded and
// regenerated from scratch." It gives up after maxTries attempts (use a
// generous bound; the paper's parameter choices make connectivity likely).
func GNPConnected(n int, p float64, rng *rand.Rand, maxTries int) (*graph.Graph, error) {
	if maxTries < 1 {
		maxTries = 1
	}
	for try := 0; try < maxTries; try++ {
		g := GNP(n, p, rng)
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("gen: no connected G(%d,%g) sample in %d tries", n, p, maxTries)
}
