package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkPowerStats compares one PowerStats pass with a textbook search from
// every vertex — a slice queue over Neighbors, sharing nothing with
// Scratch.bfs or PowerStep.
func checkPowerStats(t *testing.T, tag string, g *Graph, k int, ps *PowerStats) {
	t.Helper()
	n := g.N()
	g.PowerStats(k, ps)
	if len(ps.Ecc) != n || len(ps.Sum) != n || len(ps.Ball) != n {
		t.Fatalf("%s: result lengths %d/%d/%d, want %d", tag, len(ps.Ecc), len(ps.Sum), len(ps.Ball), n)
	}
	dist := make([]int, n)
	for src := 0; src < n; src++ {
		for i := range dist {
			dist[i] = Unreachable
		}
		dist[src] = 0
		for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
			for _, w := range g.Neighbors(queue[0]) {
				if dist[w] == Unreachable {
					dist[w] = dist[queue[0]] + 1
					queue = append(queue, int(w))
				}
			}
		}
		ecc, sum, ball := 0, 0, 0
		for _, d := range dist {
			ecc = max(ecc, d)
			sum += d
			if d <= k {
				ball++
			}
		}
		if ps.Ecc[src] != ecc || ps.Sum[src] != sum || ps.Ball[src] != ball {
			t.Fatalf("%s k=%d vertex %d: ecc/sum/ball %d/%d/%d, BFS %d/%d/%d",
				tag, k, src, ps.Ecc[src], ps.Sum[src], ps.Ball[src], ecc, sum, ball)
		}
	}
}

// TestPowerStatsMatchBFS runs the kernel on the shapes that bracket it —
// one level (star), as many levels as vertices (path), rows that never
// fill (two components, an isolated vertex), sizes on both sides of the
// one- and two-word boundaries — on ONE PowerStats whose buffers shrink
// and grow between graphs, so a stale count, row or slab tail would show.
func TestPowerStatsMatchBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(20261003))
	ps := new(PowerStats)
	for _, n := range []int{200, 1, 65, 2, 64, 0, 63, 200} {
		path, cycle, star, gnp, split, lone := New(n), New(n), New(n), New(n), New(n), New(n)
		for v := 1; v < n; v++ {
			path.AddEdge(v-1, v)
			cycle.AddEdge(v-1, v)
			star.AddEdge(0, v)
			if v != n/2 { // two paths
				split.AddEdge(v-1, v)
			}
			if v != n-1 { // a tree and an isolated last vertex
				lone.AddEdge(rng.Intn(v), v)
			}
			for w := 0; w < v; w++ {
				if rng.Float64() < 3/float64(n) {
					gnp.AddEdge(w, v)
				}
			}
		}
		if n > 2 {
			cycle.AddEdge(n-1, 0)
		}
		shapes := []struct {
			name string
			g    *Graph
		}{{"path", path}, {"cycle", cycle}, {"star", star}, {"gnp", gnp}, {"split", split}, {"lone", lone}}
		for _, sh := range shapes {
			for _, k := range []int{0, 1, 2, n, 1000} {
				checkPowerStats(t, fmt.Sprintf("%s n=%d", sh.name, n), sh.g, k, ps)
			}
		}
	}
}

func TestPowerStatsNegativeRadiusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative radius did not panic")
		}
	}()
	New(3).PowerStats(-1, new(PowerStats))
}

// TestPowerStepBase pins the id offset the best-response scan relies on: a
// view without its center numbers its rows from 1, and must get the rows
// the same graph numbered from 0 gets — on the one-word path, the
// two-word path and the general one.
func TestPowerStepBase(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{40, 70, 150} {
		words := (n + 63) / 64
		g := New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(rng.Intn(v), v)
		}
		shifted := make([][]int32, n)
		for v, l := range g.adj {
			for _, w := range l {
				shifted[v] = append(shifted[v], w+1)
			}
		}
		level := make([]uint64, n*words)
		for v := 0; v < n; v++ {
			level[v*words+v/64] = 1 << (v % 64)
		}
		for steps := 1; ; steps++ {
			a, b := make([]uint64, n*words), make([]uint64, n*words)
			grew := PowerStep(g.adj, 0, words, level, a)
			if PowerStep(shifted, 1, words, level, b) != grew || !slices.Equal(a, b) {
				t.Fatalf("n=%d level %d: base 1 disagrees with base 0", n, steps)
			}
			if grew == slices.Equal(a, level) {
				t.Fatalf("n=%d level %d: growth reported as %v", n, steps, grew)
			}
			if !grew {
				if steps < 4 {
					t.Fatalf("a random tree on %d vertices saturated after %d levels", n, steps-1)
				}
				break
			}
			level = a
		}
	}
}

// FuzzPowerStats decodes a graph on at most 70 vertices — byte 0 picks n,
// byte 1 the radius, then one bit per vertex pair — and compares the
// kernel with a search per vertex.
func FuzzPowerStats(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 1, 0x01})
	f.Add([]byte{7, 2, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{63, 3, 0x11, 0x22, 0x44, 0x88, 0x11, 0x22, 0x44, 0x88, 0x10, 0x01})
	f.Add([]byte{64, 4, 0x01, 0x00, 0x00, 0x80, 0x01, 0x00, 0x00, 0x80, 0xff})
	f.Add([]byte{69, 1, 0x03, 0x00, 0x0c, 0x00, 0x30, 0x00, 0xc0, 0x00, 0x03})
	f.Add([]byte{30, 0, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55})
	ks := []int{0, 1, 2, 3, 70, 1000}
	ps := new(PowerStats)
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		n := 1 + at(0)%70
		k := ks[at(1)%len(ks)]
		g := New(n)
		bit := 16
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if at(bit/8)>>(bit%8)&1 != 0 {
					g.AddEdge(a, b)
				}
				bit++
			}
		}
		checkPowerStats(t, fmt.Sprintf("n=%d %v", n, g.Edges()), g, k, ps)
	})
}
