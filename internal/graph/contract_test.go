package graph

import (
	"fmt"
	"strings"
	"testing"
)

// TestTraversalArgumentContract walks every public traversal of both
// representations through the three caller mistakes — a source outside
// [0, n), a negative radius, a dist buffer of the wrong length — and
// asserts each panics with a "graph:"-prefixed message, before any
// buffer is touched, rather than with an index error from inside the
// loop. The Scratch is deliberately larger than the graph: an unchecked
// source that happens to index the pooled buffers must still be refused.
func TestTraversalArgumentContract(t *testing.T) {
	g := path(4)
	csr := g.CSR()
	s := new(Scratch)
	path(64).BFSWithinScratch(0, 64, s)
	dist := []int{7, 7, 7, 7} // a refused call must not have written to it

	calls := []struct {
		name          string
		radius, dists bool // takes a radius / a dist buffer
		fn            func(src, k int, dist []int)
	}{
		{"Graph.BFS", false, true, func(src, _ int, dist []int) { g.BFS(src, dist) }},
		{"Graph.BFSWithin", true, true, func(src, k int, dist []int) { g.BFSWithin(src, k, dist) }},
		{"Graph.Distances", false, false, func(src, _ int, _ []int) { g.Distances(src) }},
		{"Graph.Eccentricity", false, false, func(src, _ int, _ []int) { g.Eccentricity(src) }},
		{"Graph.SumDistances", false, false, func(src, _ int, _ []int) { g.SumDistances(src) }},
		{"Graph.BFSWithinScratch", true, false, func(src, k int, _ []int) { g.BFSWithinScratch(src, k, s) }},
		{"Graph.MultiBFSWithinScratch", true, false, func(src, k int, _ []int) {
			g.MultiBFSWithinScratch([]int32{0, int32(src)}, k, s)
		}},
		{"CSR.BFSWithin", true, false, func(src, k int, _ []int) { csr.BFSWithin(src, k, s) }},
	}

	expectPanic := func(tag string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic", tag)
			} else if msg := fmt.Sprint(r); !strings.HasPrefix(msg, "graph:") {
				t.Errorf("%s: panic %q lacks the graph: prefix", tag, msg)
			}
		}()
		fn()
	}
	for _, c := range calls {
		for _, src := range []int{-1, g.N(), 40} {
			expectPanic(fmt.Sprintf("%s(src=%d)", c.name, src), func() { c.fn(src, 1, dist) })
		}
		if c.radius {
			expectPanic(c.name+"(k=-1)", func() { c.fn(0, -1, dist) })
		}
		if c.dists {
			for _, n := range []int{0, g.N() - 1, g.N() + 1} {
				expectPanic(fmt.Sprintf("%s(len(dist)=%d)", c.name, n), func() { c.fn(0, 1, make([]int, n)) })
			}
		}
		for _, d := range dist {
			if d != 7 {
				t.Fatalf("%s: a refused call wrote to dist: %v", c.name, dist)
			}
		}
		// The refused calls must have left the scratch usable.
		if got := g.BFSWithinScratch(0, 4, s); len(got) != g.N() {
			t.Fatalf("after %s: traversal visited %v", c.name, got)
		}
	}
}
