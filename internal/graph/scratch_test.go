package graph

import (
	"fmt"
	"math"
	"testing"
)

// TestBFSSpareQueueSlot holds Scratch.bfs's branch-free arc scan to the
// oracle where its queue is tight: on the complete graphs K1…K9, a star
// and a path, the scan goes on reading arcs once every vertex is queued,
// so it writes the spare slot. Each graph gets a fresh Scratch, sized by
// its first search, that every later search reuses, so stale distances
// sit under every vertex; the last search runs across the epoch wrap.
func TestBFSSpareQueueSlot(t *testing.T) {
	type shape struct {
		name  string
		n     int
		edges [][2]int
	}
	var shapes []shape
	for n := 1; n <= 9; n++ {
		sh := shape{name: fmt.Sprintf("K%d", n), n: n}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				sh.edges = append(sh.edges, [2]int{u, v})
			}
		}
		shapes = append(shapes, sh)
	}
	starShape, pathShape := shape{name: "star", n: 9}, shape{name: "path", n: 9}
	for v := 1; v < 9; v++ {
		starShape.edges = append(starShape.edges, [2]int{0, v})
		pathShape.edges = append(pathShape.edges, [2]int{v - 1, v})
	}
	shapes = append(shapes, starShape, pathShape)

	for _, sh := range shapes {
		n := sh.n
		g, o := New(n), newOracle(n)
		for _, e := range sh.edges {
			g.AddEdge(e[0], e[1])
			o.add(e[0], e[1])
		}
		var s Scratch
		search := func(tag string, set []int, k int) {
			t.Helper()
			srcs := make([]int32, len(set))
			for i, v := range set {
				srcs[i] = int32(v)
			}
			got := g.MultiBFSWithinScratch(srcs, k, &s)
			want, wd := o.bfs(set, k)
			if len(got) != len(want) {
				t.Fatalf("%s %s from %v, k=%d: visited %v, oracle %v", sh.name, tag, set, k, got, want)
			}
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("%s %s from %v, k=%d: visited %v, oracle %v", sh.name, tag, set, k, got, want)
				}
			}
			for v := range n {
				if s.Dist(v) != distOf(wd, v) {
					t.Fatalf("%s %s from %v, k=%d: dist[%d] = %d, oracle %d", sh.name, tag, set, k, v, s.Dist(v), distOf(wd, v))
				}
			}
		}
		sets := [][]int{{0}, {n - 1}, {n / 2}, {0, 0}, {n - 1, 0, n - 1}, {n / 2, n - 1, 0}}
		for pass := range 2 {
			for _, set := range sets {
				for _, k := range []int{0, 1, n} {
					search(fmt.Sprintf("pass %d", pass), set, k)
				}
			}
		}
		s.epoch = math.MaxUint32
		search("across the epoch wrap", []int{n - 1, 0}, n)
		if s.epoch != 1 {
			t.Fatalf("%s: epoch %d after the wrap, want 1", sh.name, s.epoch)
		}
	}
}
