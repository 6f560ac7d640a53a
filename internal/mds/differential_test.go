package mds

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// instance is one dominating-set problem in the bitset form the solvers
// take.
type instance struct {
	n      int
	nbs    [][]uint64
	forced []int
}

// rows returns the closed neighborhoods of g as freshly allocated bitsets.
func rows(g *graph.Graph) [][]uint64 {
	words := (g.N() + 63) / 64
	slab := slices.Clone(new(Solver).closedNeighborhoods(g))
	out := make([][]uint64, g.N())
	for v := range out {
		out[v] = slab[v*words : (v+1)*words]
	}
	return out
}

// randomInstance draws a graph on n vertices — a G(n,p), an edgeless
// graph, or a power of a random tree, which is what the best-response scan
// solves — and a random forced set. Density grows with n: the exact solve
// of a sparse graph on a hundred vertices takes the retained core seconds.
func randomInstance(n int, rng *rand.Rand) instance {
	var g *graph.Graph
	switch c := rng.Intn(10); {
	case c == 0:
		g = graph.New(n)
	case c < 5:
		g = gen.GNP(n, min(1, (3+9*rng.Float64())/float64(n)+float64(n)/250), rng)
	default:
		g = gen.RandomTree(n, rng).Power(1 + n/16 + rng.Intn(3))
	}
	in := instance{n: n, nbs: rows(g)}
	if rng.Intn(3) > 0 {
		for f := rng.Intn(1 + n/8); f > 0; f-- {
			in.forced = append(in.forced, rng.Intn(n)) // repeats are legal
		}
	}
	return in
}

// slab returns the instance's rows as one slab, the layout Solve takes.
func (in instance) slab() []uint64 { return slices.Concat(in.nbs...) }

// refSolve runs the retained core on a copy of the instance's rows.
func refSolve(in instance, limit int) ([]int, bool, int) {
	nbs := make([]refBitset, in.n)
	for v := range nbs {
		nbs[v] = refBitset(in.nbs[v])
	}
	return refMinDominatingExtraAtMost(in.n, nbs, in.forced, limit)
}

// sameSet demands the same elements in the same order and the same
// nil-ness: sweep checkpoints depend on all three.
func sameSet(a, b []int) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// TestSolverMatchesRetainedCore pins Solver to the allocating core it
// replaced (reference_test.go): same set in the same order, same ok, and
// the same number of expanded nodes — so a search that runs out of
// nodeBudget is cut off at the same node. One Solver serves every
// instance, sizes interleaved, so stale state from a larger or smaller
// predecessor would show.
func TestSolverMatchesRetainedCore(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	sizes := []int{1, 2, 3, 5, 9, 17, 31, 62, 63, 64, 65, 66, 97, 127, 128, 129, 130}
	var s Solver
	instances, nodes := 0, 0
	for round := 0; instances < 2000; round++ {
		for _, n := range sizes {
			if round%4 != 0 && n > 66 {
				continue // the three-word sizes dominate the run time
			}
			in := randomInstance(n, rng)
			instances++
			for _, limit := range []int{1, 2, (n + 3) / 4, n + 1} {
				want, wantOK, wantNodes := refSolve(in, limit)
				got, ok := s.Solve(in.n, in.slab(), in.forced, limit)
				if !sameSet(got, want) || ok != wantOK {
					t.Fatalf("n=%d forced=%v limit=%d: got %v %v, retained core %v %v",
						n, in.forced, limit, got, ok, want, wantOK)
				}
				if s.nodes != wantNodes {
					t.Fatalf("n=%d forced=%v limit=%d: expanded %d nodes, retained core %d",
						n, in.forced, limit, s.nodes, wantNodes)
				}
				nodes += s.nodes
				if pooled, pooledOK := MinDominatingExtraAtMostBitsets(in.n, in.nbs, in.forced, limit); !sameSet(pooled, want) || pooledOK != wantOK {
					t.Fatalf("n=%d limit=%d: package entry point got %v %v, retained core %v %v",
						n, limit, pooled, pooledOK, want, wantOK)
				}
			}
		}
	}
	t.Logf("%d instances, %d search nodes", instances, nodes)
}

// TestGreedyMatchesRetainedCore pins the shared greedyExtra, run without a
// cap, to the retained one.
func TestGreedyMatchesRetainedCore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(130)
		g := gen.GNP(n, min(1, 4/float64(n)), rng)
		var forced []int
		for f := rng.Intn(3); f > 0; f-- {
			forced = append(forced, rng.Intn(n))
		}
		nbs := make([]refBitset, n)
		full, covered, forcedSet := newRefBitset(n), newRefBitset(n), newRefBitset(n)
		for v, nb := range rows(g) {
			nbs[v] = nb
			full.set(v)
		}
		for _, f := range forced {
			forcedSet.set(f)
			nbs[f].orInto(covered, covered)
		}
		want := refGreedyExtra(nbs, full, covered, forcedSet)
		if got := Greedy(g, forced); !sameSet(got, want) {
			t.Fatalf("n=%d forced=%v: greedy %v, retained core %v", n, forced, got, want)
		}
	}
}

// TestSolverReuse drives one Solver through instances that grow and then
// shrink and compares each answer with a fresh Solver's, then checks the
// ownership rule: a Solver overwrites its result on the next solve, also
// on one that fails, so the package-level entry points — whose Solver goes
// back to the pool — must hand out slices no later solve can touch.
func TestSolverReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var reused Solver
	for _, n := range []int{3, 20, 64, 65, 130, 129, 66, 64, 40, 7, 1} {
		in := randomInstance(n, rng)
		for _, limit := range []int{n + 1, 2, 1} {
			var fresh Solver
			want, wantOK := fresh.Solve(in.n, in.slab(), in.forced, limit)
			got, ok := reused.Solve(in.n, in.slab(), in.forced, limit)
			if !sameSet(got, want) || ok != wantOK || reused.nodes != fresh.nodes {
				t.Fatalf("n=%d limit=%d: reused solver got %v %v after %d nodes, fresh %v %v after %d",
					n, limit, got, ok, reused.nodes, want, wantOK, fresh.nodes)
			}
		}
	}

	// A path on 9 vertices needs 3 dominators; capped at 3 the solve
	// fails, after the warm start has scribbled over the incumbent.
	path := rows(gen.Path(9))
	kept, ok := MinDominatingExtraAtMostBitsets(9, path, nil, 10)
	if !ok || len(kept) != 3 {
		t.Fatalf("P9: got %v %v, want 3 vertices", kept, ok)
	}
	want := slices.Clone(kept)
	if _, ok := MinDominatingExtraAtMostBitsets(9, path, nil, 3); ok {
		t.Fatal("P9 capped at its domination number: solve succeeded")
	}
	MinDominatingExtraAtMostBitsets(9, path, []int{0, 8}, 10) // another set
	MinDominatingExtraAtMost(gen.Star(9), nil, 10)            // another graph
	if !slices.Equal(kept, want) {
		t.Fatalf("result kept across later solves changed: %v, was %v", kept, want)
	}
}

// FuzzMinDominatingExtra checks the exact solver against exhaustive
// enumeration on graphs of at most 12 vertices decoded from the input:
// byte 0 picks n, byte 1 the forced set's size, then one bit per vertex
// pair.
func FuzzMinDominatingExtra(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{11, 0})
	f.Add([]byte{11, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{8, 1, 0x11, 0x42, 0x08, 0x80})
	f.Add([]byte{9, 3, 0xa5, 0x5a, 0x00, 0x3c, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		n := 1 + int(at(0))%12
		g := graph.New(n)
		bit := 16
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if at(bit/8)&(1<<(bit%8)) != 0 {
					g.AddEdge(u, v)
				}
				bit++
			}
		}
		var forced []int
		for i := 0; i < int(at(1))%4; i++ {
			forced = append(forced, (int(at(1))/4+5*i)%n)
		}
		want := BruteForce(g, forced)
		got, _ := MinDominatingExtraAtMost(g, forced, g.N()+1)
		if len(got) != len(want) || !Dominates(g, got, forced) {
			t.Fatalf("n=%d forced=%v: solver %v, brute force %v", n, forced, got, want)
		}
		for _, v := range got {
			if slices.Contains(forced, v) {
				t.Fatalf("n=%d forced=%v: solver result %v contains a forced vertex", n, forced, got)
			}
		}
		// Capped at its own size the search must fail; one above, succeed.
		if _, ok := MinDominatingExtraAtMost(g, forced, len(want)); ok {
			t.Fatalf("n=%d forced=%v: found a set below the optimum %d", n, forced, len(want))
		}
		if _, ok := MinDominatingExtraAtMost(g, forced, len(want)+1); !ok {
			t.Fatalf("n=%d forced=%v: no set of the optimum size %d", n, forced, len(want))
		}
	})
}
