package graph

// IsConnected reports whether g is connected. The empty graph and the
// single-vertex graph are connected.
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	s := GetScratch(g.n)
	reached := len(within(g.adj, 0, g.n, s))
	PutScratch(s)
	return reached == g.n
}

// Components returns the connected components of g as vertex lists, ordered
// by their smallest vertex.
func (g *Graph) Components() [][]int {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int
	dist := make([]int, g.n)
	for s := 0; s < g.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		g.BFS(s, dist)
		var members []int
		for v, d := range dist {
			if d != Unreachable && comp[v] < 0 {
				comp[v] = len(out)
				members = append(members, v)
			}
		}
		out = append(out, members)
	}
	return out
}

// Diameter returns the largest eccentricity. For a disconnected graph it
// returns Unreachable; for n <= 1 it returns 0.
func (g *Graph) Diameter() int {
	if g.n <= 1 {
		return 0
	}
	d := 0
	for _, e := range g.AllEccentricities() {
		if e > d {
			d = e
		}
	}
	return d
}

// Girth returns the length of a shortest cycle in g, or Unreachable when g
// is acyclic. It runs a BFS from every vertex and detects the first
// cross/back edge closing a cycle, which is exact for unweighted graphs.
func (g *Graph) Girth() int {
	best := Unreachable
	dist := make([]int, g.n)
	parent := make([]int32, g.n)
	queue := make([]int32, g.n)
	for s := 0; s < g.n; s++ {
		for i := range dist {
			dist[i] = Unreachable
			parent[i] = -1
		}
		dist[s] = 0
		queue[0] = int32(s)
		head, tail := 0, 1
		for head < tail {
			u := int(queue[head])
			head++
			if 2*dist[u] >= best {
				// No shorter cycle through s can be found deeper.
				break
			}
			for _, w := range g.adj[u] {
				if dist[w] == Unreachable {
					dist[w] = dist[u] + 1
					parent[w] = int32(u)
					queue[tail] = w
					tail++
				} else if int32(u) != parent[w] && parent[u] != w {
					// Non-tree edge closes a cycle through s of length
					// dist[u] + dist[w] + 1 (a lower bound that is attained
					// for the minimal such edge; scanning all sources makes
					// the overall minimum exact).
					if c := dist[u] + dist[int(w)] + 1; c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}

// AverageDegree returns 2m/n, or 0 for the empty vertex set.
func (g *Graph) AverageDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}
