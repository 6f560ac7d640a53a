// Package graph provides the undirected-graph substrate used by every other
// package in this repository: adjacency storage, BFS kernels, distance
// metrics (eccentricity, diameter, radius, girth), graph powers, induced
// subgraphs, and connectivity queries.
//
// Vertices are dense integers in [0, N). Graphs are mutable — the
// best-response dynamics rewires edges on every improving move — so the
// representation favors cheap edge insertion/removal on small-degree
// vertices over asymptotic cleverness. All query methods are read-only and
// safe for concurrent use as long as no writer is active.
//
// Every traversal is one loop. Scratch.bfs is the package's only
// breadth-first search (Girth, which tracks parents, aside): multi-source,
// radius-bounded, reading adjacency as one []int32 row per vertex and
// returning the visited vertices in BFS order. It has two row sources.
// Graph.adj is the mutable one. CSR is an immutable snapshot that packs
// the same rows, in the same order, into one slab and keeps a row header
// per vertex. The public traversals — BFS, BFSWithin, Distances,
// Eccentricity, SumDistances, IsConnected, BFSWithinScratch,
// MultiBFSWithinScratch, CSR.BFSWithin, ... — are wrappers that check
// their arguments (a vertex out of range, a negative radius or a
// wrong-length buffer panics with a "graph:" message before anything is
// written), run the kernel, and shape its result. Scratch is the buffer
// set the kernel runs on — an epoch-stamped visited array plus int32
// distance/queue buffers — so a traversal neither allocates nor pays an
// O(n) clear; wrappers that take no Scratch borrow one from a pool.
//
// Every all-pairs question is one loop too, and not a traversal:
// PowerStep (powers.go) raises the closed neighbourhoods of every vertex
// one level at a time as bit rows over the same adjacency rows. The
// best-response scan keeps the levels it solves on; PowerStats keeps two
// and reads every eccentricity, distance sum and ball size off row
// popcounts (AllEccentricities, AllSumDistances, Diameter). It starts no
// goroutine: the caller decides what runs in parallel.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Graph is an undirected simple graph on vertices 0..n-1, stored as
// adjacency lists. Self-loops and parallel edges are rejected.
type Graph struct {
	n   int
	m   int
	adj [][]int32
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]int32, n)}
}

// FromEdges returns the graph on n vertices whose adjacency lists are
// exactly those New(n) followed by AddEdge over edges, in order, would
// build. edges must be shaped as Edges returns them — U < V, strictly
// ascending by (U, V) — which makes them distinct without AddEdge's
// HasEdge scans; anything else panics. The lists share one slab, each
// capped at its vertex's degree, so a later AddEdge reallocates the one
// list it grows instead of writing into the next.
func FromEdges(n int, edges []Edge) *Graph {
	g := New(n)
	deg := make([]int32, n)
	prev := Edge{-1, -1}
	for _, e := range edges {
		checkVertex(e.U, n)
		checkVertex(e.V, n)
		if e.U >= e.V || e.U < prev.U || e.U == prev.U && e.V <= prev.V {
			panic(fmt.Sprintf("graph: FromEdges edge (%d,%d) after (%d,%d) breaks U < V, ascending", e.U, e.V, prev.U, prev.V))
		}
		deg[e.U]++
		deg[e.V]++
		prev = e
	}
	slab := make([]int32, 2*len(edges))
	off := int32(0)
	for v, d := range deg {
		g.adj[v] = slab[off : off : off+d]
		off += d
	}
	for _, e := range edges {
		g.adj[e.U] = append(g.adj[e.U], int32(e.V))
		g.adj[e.V] = append(g.adj[e.V], int32(e.U))
	}
	g.m = len(edges)
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// check panics when v is out of range.
func (g *Graph) check(v int) { checkVertex(v, g.n) }

// checkVertex panics when v does not index a graph on n vertices.
func checkVertex(v, n int) {
	if v < 0 || v >= n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, n))
	}
}

// HasEdge reports whether the undirected edge (u,v) is present.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	// Scan the smaller list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, w := range g.adj[u] {
		if int(w) == v {
			return true
		}
	}
	return false
}

// AddEdge inserts the undirected edge (u,v). It returns false when the edge
// already exists or u == v, and true when the edge was inserted.
func (g *Graph) AddEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v || g.HasEdge(u, v) {
		return false
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	g.m++
	return true
}

// RemoveEdge deletes the undirected edge (u,v). It returns false when the
// edge was not present.
func (g *Graph) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	if !g.removeArc(u, v) {
		return false
	}
	g.removeArc(v, u)
	g.m--
	return true
}

func (g *Graph) removeArc(u, v int) bool {
	l := g.adj[u]
	for i, w := range l {
		if int(w) == v {
			l[i] = l[len(l)-1]
			g.adj[u] = l[:len(l)-1]
			return true
		}
	}
	return false
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return len(g.adj[v])
}

// MaxDegree returns the largest vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns the adjacency list of v. The returned slice aliases the
// graph's internal storage and must not be modified; its order is
// unspecified.
func (g *Graph) Neighbors(v int) []int32 {
	g.check(v)
	return g.adj[v]
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, m: g.m, adj: make([][]int32, g.n)}
	for v, l := range g.adj {
		if len(l) > 0 {
			c.adj[v] = append([]int32(nil), l...)
		}
	}
	return c
}

// Edge is an undirected edge with U < V.
type Edge struct{ U, V int }

// Edges returns all edges with U < V, sorted lexicographically. The outer
// loop already emits edges grouped by ascending U, so only each vertex's
// span needs sorting (by V) — not the whole slice.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		start := len(out)
		for _, w := range g.adj[u] {
			if int(w) > u {
				out = append(out, Edge{u, int(w)})
			}
		}
		span := out[start:]
		slices.SortFunc(span, func(a, b Edge) int { return cmp.Compare(a.V, b.V) })
	}
	return out
}

// Equal reports whether g and h have identical vertex and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.m != h.m {
		return false
	}
	for u := 0; u < g.n; u++ {
		if len(g.adj[u]) != len(h.adj[u]) {
			return false
		}
		for _, w := range g.adj[u] {
			if !h.HasEdge(u, int(w)) {
				return false
			}
		}
	}
	return true
}

// String renders a compact description, e.g. "Graph(n=5, m=4)".
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.n, g.m)
}
