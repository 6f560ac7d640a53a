package gen

import (
	"math/rand"

	"repro/internal/graph"
)

// RandomTree returns a tree on n vertices drawn uniformly at random from the
// n^(n-2) labelled trees (Cayley's formula), by decoding a uniformly random
// Prüfer sequence. This matches the paper's "picked a tree uniformly at
// random from the set of all possible trees on n vertices" (§5.2).
func RandomTree(n int, rng *rand.Rand) *graph.Graph {
	if n < 1 {
		panic("gen: RandomTree needs n >= 1")
	}
	if n <= 2 {
		g := graph.New(n)
		if n == 2 {
			g.AddEdge(0, 1)
		}
		return g
	}
	seq := make([]int, n-2)
	for i := range seq {
		seq[i] = rng.Intn(n)
	}
	return PruferDecode(seq)
}

// PruferDecode builds the labelled tree on len(seq)+2 vertices encoded by
// the Prüfer sequence seq. Every entry must lie in [0, len(seq)+2).
func PruferDecode(seq []int) *graph.Graph {
	n := len(seq) + 2
	g := graph.New(n)
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range seq {
		if v < 0 || v >= n {
			panic("gen: Prüfer sequence entry out of range")
		}
		degree[v]++
	}
	// ptr scans for the smallest leaf; leaf tracks the current minimal leaf
	// as in the classic linear-time decoder.
	ptr := 0
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range seq {
		g.AddEdge(leaf, v)
		degree[v]--
		if degree[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	// The last two remaining leaves are leaf and n-1.
	g.AddEdge(leaf, n-1)
	return g
}
