package graph

// Induced returns the subgraph of g induced by the given vertices, together
// with the mapping from new vertex ids (0..len(vertices)-1) back to the
// original ids. Duplicate vertices in the input panic.
func (g *Graph) Induced(vertices []int) (*Graph, []int) {
	index := make(map[int]int, len(vertices))
	orig := make([]int, len(vertices))
	for i, v := range vertices {
		g.check(v)
		if _, dup := index[v]; dup {
			panic("graph: duplicate vertex in induced subgraph")
		}
		index[v] = i
		orig[i] = v
	}
	h := New(len(vertices))
	for i, v := range vertices {
		for _, w := range g.adj[v] {
			if j, ok := index[int(w)]; ok && j > i {
				h.AddEdge(i, j)
			}
		}
	}
	return h, orig
}

// Power returns the h-th power of g: a graph on the same vertex set where
// (u,v) is an edge iff 0 < d_g(u,v) <= h. Power(0) is the empty graph and
// Power(1) equals g.
func (g *Graph) Power(h int) *Graph {
	if h < 0 {
		panic("graph: negative power")
	}
	p := New(g.n)
	if h == 0 {
		return p
	}
	dist := make([]int, g.n)
	s := GetScratch(g.n)
	for u := 0; u < g.n; u++ {
		g.distancesInto(u, h, dist, s)
		for v := u + 1; v < g.n; v++ {
			if dist[v] <= h {
				p.AddEdge(u, v)
			}
		}
	}
	PutScratch(s)
	return p
}
