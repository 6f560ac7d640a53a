// Package view implements the paper's locality model: each player knows
// the network only up to radius k — the subgraph induced by her
// k-neighborhood (§1). Views carry the id mapping back to the global
// network, the center's local id, and the frontier (vertices at distance
// exactly k), which SUMNCG's conservative behavior needs (Prop. 2.2).
package view

import (
	"repro/internal/graph"
)

// View is the k-neighborhood of a player: the subgraph of G induced by
// β(center, k), with local vertex ids 0..N-1.
type View struct {
	// H is the induced subgraph. Local vertex 0.. map to global ids via Orig.
	H *graph.Graph
	// Orig maps local ids to global ids.
	Orig []int
	// Local maps global ids to local ids (absent keys = outside the view).
	Local map[int]int
	// Center is the local id of the viewing player.
	Center int
	// K is the view radius.
	K int
	// Dist holds the distance (in G, equal to the distance in H for every
	// vertex of the view) from the center to each local vertex.
	Dist []int
}

// Extract returns the view of player u in g at radius k.
//
// For every vertex v in the ball, the distance from u to v inside the
// induced subgraph equals the distance in g (a shortest u-v path of length
// <= k only visits vertices of the ball), so Dist is valid in both graphs.
func Extract(g *graph.Graph, u, k int) *View {
	if k < 0 {
		panic("view: negative radius")
	}
	dist := make([]int, g.N())
	visited := g.BFSWithin(u, k, dist)
	vertices := make([]int, len(visited))
	for i, v := range visited {
		vertices[i] = int(v)
	}
	h, orig := g.Induced(vertices)
	local := make(map[int]int, len(orig))
	for i, v := range orig {
		local[v] = i
	}
	localDist := make([]int, len(orig))
	for i, v := range orig {
		localDist[i] = dist[v]
	}
	return &View{
		H:      h,
		Orig:   orig,
		Local:  local,
		Center: local[u],
		K:      k,
		Dist:   localDist,
	}
}

// Size returns the number of vertices the player sees (Figure 5's
// "view size"), including herself.
func (v *View) Size() int { return v.H.N() }

// BallSize returns |β(u,k)| — what Extract(g,u,k).Size() would report —
// with one pooled bounded BFS and no view materialization. Per-round
// statistics collection calls this once per player per round.
func BallSize(g *graph.Graph, u, k int) int {
	s := graph.GetScratch(g.N())
	n := len(g.BFSWithinScratch(u, k, s))
	graph.PutScratch(s)
	return n
}

// Frontier returns the local ids of the vertices at distance exactly K
// from the center — the set F of Prop. 2.2.
func (v *View) Frontier() []int {
	var out []int
	for i, d := range v.Dist {
		if d == v.K {
			out = append(out, i)
		}
	}
	return out
}

// SeesAll reports whether the view covers the entire network of n
// vertices; in that case the player effectively plays the full-knowledge
// game (gray regions of Figures 3–4).
func (v *View) SeesAll(n int) bool { return v.H.N() == n }
