package game

import (
	"math/rand"

	"repro/internal/graph"
)

// FromGraphRandomOwners builds a state whose network equals g, assigning
// the ownership of each edge to one of its endpoints "with a fair coin
// toss" (§5.2).
func FromGraphRandomOwners(g *graph.Graph, rng *rand.Rand) *State {
	return fromEdges(g, func() bool { return rng.Intn(2) == 0 })
}

// FromGraphLowOwners builds a state whose network equals g, with every edge
// bought by its lower-id endpoint. Useful for deterministic tests.
func FromGraphLowOwners(g *graph.Graph) *State {
	return fromEdges(g, func() bool { return true })
}

// fromEdges builds the state in one pass over g.Edges(), asking lowOwns
// once per edge, in that order, whether U (else V) buys it. The network
// gets the adjacency lists that buying the edges one by one would build.
// Edges() ascends by (U, V), so each player's owned targets arrive in
// ascending order: first the lower endpoints of the edges ending at her,
// then the higher endpoints of the edges starting at her. Her strategy is
// appended into a capacity-capped region of one slab sized by her degree.
func fromEdges(g *graph.Graph, lowOwns func() bool) *State {
	edges := g.Edges()
	n := g.N()
	s := &State{g: graph.FromEdges(n, edges), buys: make([][]int, n)}
	slab := make([]int, 2*len(edges))
	off := 0
	for v := range s.buys {
		d := g.Degree(v)
		s.buys[v] = slab[off : off : off+d]
		off += d
	}
	for _, e := range edges {
		if lowOwns() {
			s.buys[e.U] = append(s.buys[e.U], e.V)
		} else {
			s.buys[e.V] = append(s.buys[e.V], e.U)
		}
	}
	return s
}
