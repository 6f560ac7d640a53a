package graph

// CSR is a flat compressed-sparse-row snapshot of a Graph: the targets of
// every vertex are packed into one int32 slab in the same order as the
// adjacency lists (BFS visit order — and therefore every downstream
// tie-break — is identical on both representations), and rows[v] is the
// slice header of v's span of it, so the traversal kernel reads a CSR
// exactly as it reads Graph.adj. A CSR is immutable and safe for
// concurrent traversals, each using its own Scratch; it does not track
// later mutations of the source Graph.
type CSR struct {
	rows [][]int32
	tgt  []int32
}

// CSR returns a fresh flat snapshot of g.
func (g *Graph) CSR() *CSR { return g.CSRInto(nil) }

// CSRInto snapshots g into c, reusing c's buffers when large enough. A
// nil c allocates a new snapshot.
func (g *Graph) CSRInto(c *CSR) *CSR {
	if c == nil {
		c = &CSR{}
	}
	if cap(c.rows) < g.n {
		c.rows = make([][]int32, g.n)
	}
	c.rows = c.rows[:g.n]
	if cap(c.tgt) < 2*g.m {
		c.tgt = make([]int32, 2*g.m)
	}
	c.tgt = c.tgt[:2*g.m]
	pos := 0
	for v, l := range g.adj {
		end := pos + copy(c.tgt[pos:], l)
		c.rows[v] = c.tgt[pos:end:end]
		pos = end
	}
	return c
}

// BFSWithin explores only vertices at distance at most k from src,
// returning them in BFS order (aliasing the scratch queue, valid until
// its next traversal); distances are readable through s.Dist.
func (c *CSR) BFSWithin(src, k int, s *Scratch) []int32 {
	return within(c.rows, src, k, s)
}
