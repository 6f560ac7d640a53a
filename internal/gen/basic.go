// Package gen builds the input graph families used throughout the paper:
// deterministic topologies (paths, cycles, stars, cliques, grids), uniform
// random trees via Prüfer sequences (§5.2), Erdős–Rényi G(n,p) graphs
// (§5.2), and the high-girth regular graphs underlying the dense lower
// bounds (Lemma 3.2, Theorem 4.3).
//
// The high-girth family is a documented substitution. The paper cites the
// algebraic Lazebnik–Ustimenko–Woldar graphs; here girth 6 is served
// exactly by projective-plane incidence graphs (same parameters,
// elementary modular arithmetic: ProjectivePlaneIncidence), and larger
// girths by a randomized greedy generator with certified girth and exact
// regularity but weaker density (RegularHighGirth).
package gen

import "repro/internal/graph"

// Path returns the path graph v0-v1-...-v_{n-1}.
func Path(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Cycle returns the cycle graph on n >= 3 vertices.
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic("gen: cycle needs n >= 3")
	}
	g := Path(n)
	g.AddEdge(n-1, 0)
	return g
}

// Star returns the star graph with center vertex 0 and n-1 leaves.
func Star(n int) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// Grid returns the rows x cols king-less grid graph (4-neighborhood).
// Vertex (r,c) has id r*cols+c.
func Grid(rows, cols int) *graph.Graph {
	if rows < 1 || cols < 1 {
		panic("gen: grid needs positive dimensions")
	}
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Torus returns the rows x cols toroidal grid (wrap-around 4-neighborhood).
// Both dimensions must be at least 3 to keep the graph simple.
func Torus(rows, cols int) *graph.Graph {
	if rows < 3 || cols < 3 {
		panic("gen: torus needs dimensions >= 3")
	}
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddEdge(id(r, c), id(r, (c+1)%cols))
			g.AddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return g
}
