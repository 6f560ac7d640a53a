package graph

import "slices"

// Unreachable is the distance reported for vertices in a different connected
// component. It is large enough to dominate any real distance but small
// enough that modest sums do not overflow int.
const Unreachable = int(1) << 40

// within is the single-source traversal behind both representations: it
// checks src and k, then explores rows from src out to distance k.
func within(rows [][]int32, src, k int, s *Scratch) []int32 {
	checkVertex(src, len(rows))
	if k < 0 {
		panic("graph: negative radius")
	}
	return s.bfs(rows, []int32{int32(src)}, k)
}

// BFSWithinScratch explores only vertices at distance at most k from src
// and returns them in BFS order (aliasing the scratch queue, valid until
// the next traversal). Distances are readable through s.Dist.
func (g *Graph) BFSWithinScratch(src, k int, s *Scratch) []int32 {
	return within(g.adj, src, k, s)
}

// MultiBFSWithinScratch runs a multi-source bounded breadth-first search:
// it explores exactly the vertices at distance at most k from ANY source
// and returns them in BFS order (aliasing the scratch queue, valid until
// the next traversal). Distances — the minimum over sources — are
// readable through s.Dist. Duplicate sources are tolerated; an empty
// source set yields an empty traversal.
//
// This is the dirty set of the event-driven dynamics engine: after a
// strategy change touches a set of arc endpoints, every player whose
// k-ball could have seen the change is within distance k of one of those
// endpoints in the pre-move graph, so one bounded traversal
// over-approximates the affected players without ever scanning the whole
// network.
func (g *Graph) MultiBFSWithinScratch(srcs []int32, k int, s *Scratch) []int32 {
	for _, v := range srcs {
		g.check(int(v))
	}
	if k < 0 {
		panic("graph: negative radius")
	}
	return s.bfs(g.adj, srcs, k)
}

// distancesInto spreads a search from src out to distance k over dist,
// which must have length g.N(): Unreachable everywhere the search did not
// get to. It returns the visited vertices, aliasing the scratch queue.
func (g *Graph) distancesInto(src, k int, dist []int, s *Scratch) []int32 {
	if len(dist) != g.n {
		panic("graph: dist buffer has wrong length")
	}
	visited := within(g.adj, src, k, s)
	for i := range dist {
		dist[i] = Unreachable
	}
	for _, v := range visited {
		dist[v] = int(s.dist[v])
	}
	return visited
}

// BFS computes single-source shortest-path distances from src into dist,
// which must have length g.N(). Unreachable vertices get Unreachable.
func (g *Graph) BFS(src int, dist []int) {
	s := GetScratch(g.n)
	g.distancesInto(src, g.n, dist, s)
	PutScratch(s)
}

// BFSWithin computes distances from src, exploring only vertices at distance
// at most k. dist must have length g.N(); vertices beyond radius k (or
// unreachable) get Unreachable. It returns the visited vertices in BFS
// order, in a fresh slice; BFSWithinScratch is the allocation-free form.
func (g *Graph) BFSWithin(src, k int, dist []int) []int32 {
	s := GetScratch(g.n)
	visited := slices.Clone(g.distancesInto(src, k, dist, s))
	PutScratch(s)
	return visited
}

// Distances returns a fresh slice of distances from src.
func (g *Graph) Distances(src int) []int {
	dist := make([]int, g.n)
	g.BFS(src, dist)
	return dist
}

// eccentricity returns the eccentricity of v over rows, or Unreachable
// when v's component does not cover them. BFS order is by distance, so
// the last vertex visited is a farthest one.
func eccentricity(rows [][]int32, v int, s *Scratch) int {
	visited := within(rows, v, len(rows), s)
	if len(visited) < len(rows) {
		return Unreachable
	}
	return int(s.dist[visited[len(visited)-1]])
}

// sumDistances returns the status of v over rows: the sum of distances
// from v to every other vertex, each vertex outside v's component
// contributing exactly Unreachable.
func sumDistances(rows [][]int32, v int, s *Scratch) int {
	visited := within(rows, v, len(rows), s)
	sum := 0
	for _, u := range visited {
		sum += int(s.dist[u])
	}
	return sum + (len(rows)-len(visited))*Unreachable
}

// Eccentricity returns the eccentricity of v, or Unreachable when the graph
// is disconnected from v's component. Runs on pooled scratch buffers.
func (g *Graph) Eccentricity(v int) int {
	s := GetScratch(g.n)
	ecc := eccentricity(g.adj, v, s)
	PutScratch(s)
	return ecc
}

// SumDistances returns the status of v: the sum of distances from v to every
// other vertex. If any vertex is unreachable the result is >= Unreachable
// (each missing vertex contributes exactly Unreachable). Runs on pooled
// scratch buffers.
func (g *Graph) SumDistances(v int) int {
	s := GetScratch(g.n)
	sum := sumDistances(g.adj, v, s)
	PutScratch(s)
	return sum
}
