package graph

import (
	"math/rand"
	"testing"
)

func benchGraph(n, extra int) *Graph {
	rng := rand.New(rand.NewSource(1))
	return randomConnected(n, extra, rng)
}

func BenchmarkBFS(b *testing.B) {
	g := benchGraph(1000, 2000)
	dist := make([]int, g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(i%g.N(), dist)
	}
}

func BenchmarkBFSWithin(b *testing.B) {
	g := benchGraph(1000, 2000)
	dist := make([]int, g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFSWithin(i%g.N(), 3, dist)
	}
}

// BenchmarkAllEccentricitiesPowers vs ...Serial is the ablation for the
// neighbourhood-power kernel (PowerStats) against one BFS per vertex.
func BenchmarkAllEccentricitiesPowers(b *testing.B) {
	g := benchGraph(500, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AllEccentricities()
	}
}

func BenchmarkAllEccentricitiesSerial(b *testing.B) {
	g := benchGraph(500, 1000)
	dist := make([]int, g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 0; v < g.N(); v++ {
			g.BFS(v, dist)
			e := 0
			for _, d := range dist {
				if d > e {
					e = d
				}
			}
			_ = e
		}
	}
}

func BenchmarkGirth(b *testing.B) {
	g := benchGraph(300, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Girth()
	}
}

func BenchmarkPower2(b *testing.B) {
	g := benchGraph(300, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Power(2)
	}
}

func BenchmarkAddRemoveEdge(b *testing.B) {
	g := benchGraph(1000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := i%999, (i%999)+1
		if g.AddEdge(u, v) {
			g.RemoveEdge(u, v)
		}
	}
}
