package mds

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func benchInstances() []*graph.Graph {
	rng := rand.New(rand.NewSource(1))
	var out []*graph.Graph
	for i := 0; i < 8; i++ {
		out = append(out, gen.RandomTree(60, rng))
	}
	er, err := gen.GNPConnected(80, 0.08, rng, 200)
	if err == nil {
		out = append(out, er)
	}
	return out
}

// BenchmarkExact vs BenchmarkGreedy is the exact-vs-heuristic ablation
// for the §5.3 best-response substrate.
func BenchmarkExact(b *testing.B) {
	instances := benchInstances()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := instances[i%len(instances)]
		if set, _ := MinDominatingExtraAtMost(g, nil, g.N()+1); len(set) == 0 {
			b.Fatal("empty MDS")
		}
	}
}

func BenchmarkGreedy(b *testing.B) {
	instances := benchInstances()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := instances[i%len(instances)]
		if set := Greedy(g, nil); len(set) == 0 {
			b.Fatal("empty greedy set")
		}
	}
}

// BenchmarkExactCapped measures the size-capped search the best-response
// loop uses (the cap makes "no cheap solution exists" answers fast).
func BenchmarkExactCapped(b *testing.B) {
	instances := benchInstances()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := instances[i%len(instances)]
		MinDominatingExtraAtMost(g, nil, 3) // usually infeasible → fast "no"
	}
}

func BenchmarkExactWithForced(b *testing.B) {
	instances := benchInstances()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := instances[i%len(instances)]
		MinDominatingExtraAtMost(g, []int{0, 1}, g.N()+1)
	}
}
