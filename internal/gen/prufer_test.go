package gen

import "repro/internal/graph"

// PruferEncode returns the Prüfer sequence of a labelled tree on n >= 2
// vertices. It panics when g is not a tree. It is the inverse the
// round-trip tests in gen_test.go hold PruferDecode to; nothing outside
// them encodes a tree, so it lives here.
func PruferEncode(g *graph.Graph) []int {
	n := g.N()
	if n < 2 {
		panic("gen: PruferEncode needs n >= 2")
	}
	if g.M() != n-1 || !g.IsConnected() {
		panic("gen: PruferEncode input is not a tree")
	}
	degree := make([]int, n)
	adj := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		degree[v] = g.Degree(v)
		adj[v] = make(map[int]bool, degree[v])
		for _, w := range g.Neighbors(v) {
			adj[v][int(w)] = true
		}
	}
	seq := make([]int, 0, n-2)
	ptr := 0
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for len(seq) < n-2 {
		var parent int
		for w := range adj[leaf] {
			parent = w
		}
		seq = append(seq, parent)
		delete(adj[parent], leaf)
		degree[parent]--
		degree[leaf]--
		if degree[parent] == 1 && parent < ptr {
			leaf = parent
		} else {
			ptr++
			for degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	return seq
}
