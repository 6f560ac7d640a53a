package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// oracle is the naive model the traversals are tested against: the edge
// set as a map of maps, plus each vertex's neighbours in the order the
// package documents for its adjacency lists — appended on AddEdge, the
// last one moved into the gap on RemoveEdge. That order decides BFS visit
// order, hence local ids in views, hence checkpoint bytes, so the oracle
// pins it rather than treating it as unspecified.
type oracle struct {
	n     int
	m     int
	edges map[int]map[int]bool
	order [][]int
}

func newOracle(n int) *oracle {
	return &oracle{n: n, edges: map[int]map[int]bool{}, order: make([][]int, n)}
}

func (o *oracle) has(u, v int) bool { return o.edges[u][v] }

func (o *oracle) add(u, v int) bool {
	if u == v || o.has(u, v) {
		return false
	}
	for _, e := range [][2]int{{u, v}, {v, u}} {
		if o.edges[e[0]] == nil {
			o.edges[e[0]] = map[int]bool{}
		}
		o.edges[e[0]][e[1]] = true
		o.order[e[0]] = append(o.order[e[0]], e[1])
	}
	o.m++
	return true
}

func (o *oracle) remove(u, v int) bool {
	if !o.has(u, v) {
		return false
	}
	for _, e := range [][2]int{{u, v}, {v, u}} {
		delete(o.edges[e[0]], e[1])
		l := o.order[e[0]]
		i := slices.Index(l, e[1])
		l[i] = l[len(l)-1]
		o.order[e[0]] = l[:len(l)-1]
	}
	o.m--
	return true
}

// bfs is the textbook search: a slice queue, a map of distances. It
// returns the visited vertices in order and their distances.
func (o *oracle) bfs(srcs []int, k int) ([]int, map[int]int) {
	dist := map[int]int{}
	var queue, visited []int
	for _, v := range srcs {
		if _, ok := dist[v]; !ok {
			dist[v] = 0
			queue = append(queue, v)
			visited = append(visited, v)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] == k {
			continue
		}
		for _, w := range o.order[u] {
			if _, ok := dist[w]; !ok {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
				visited = append(visited, w)
			}
		}
	}
	return visited, dist
}

// distOf reads a distance the way the package reports it.
func distOf(dist map[int]int, v int) int {
	if d, ok := dist[v]; ok {
		return d
	}
	return Unreachable
}

// oracleHarness carries the buffers that are deliberately shared by every
// sequence: one Scratch and one CSR, reused across graphs whose n shrinks
// and grows, so a stale stamp, row header or slab tail would show.
type oracleHarness struct {
	t   *testing.T
	s   *Scratch
	csr *CSR
	rng *rand.Rand
}

func (h *oracleHarness) sameOrder(tag string, got []int32, want []int) {
	h.t.Helper()
	if len(got) != len(want) {
		h.t.Fatalf("%s: visited %v, oracle %v", tag, got, want)
	}
	for i := range want {
		if int(got[i]) != want[i] {
			h.t.Fatalf("%s: visited %v, oracle %v", tag, got, want)
		}
	}
}

func (h *oracleHarness) sameScratchDist(tag string, n int, want map[int]int) {
	h.t.Helper()
	for v := 0; v < n; v++ {
		if got := h.s.Dist(v); got != distOf(want, v) {
			h.t.Fatalf("%s: scratch dist[%d] = %d, oracle %d", tag, v, got, distOf(want, v))
		}
	}
}

// compare checks every public traversal of g, and of a fresh snapshot of
// it, against the oracle. sources are checked one by one; the all-vertex
// entry points are always checked in full.
func (h *oracleHarness) compare(tag string, g *Graph, o *oracle, sources []int) {
	t, n := h.t, o.n
	t.Helper()
	if g.N() != n || g.M() != o.m {
		t.Fatalf("%s: graph is (n=%d, m=%d), oracle (n=%d, m=%d)", tag, g.N(), g.M(), n, o.m)
	}
	h.csr = g.CSRInto(h.csr)
	dist := make([]int, n)
	for _, src := range sources {
		h.sameOrder(fmt.Sprintf("%s Neighbors(%d)", tag, src), g.Neighbors(src), o.order[src])
		_, full := o.bfs([]int{src}, n)
		ecc, sum := 0, 0
		for v := 0; v < n; v++ {
			d := distOf(full, v)
			sum += d
			ecc = max(ecc, d)
		}
		for v, d := range g.Distances(src) {
			if d != distOf(full, v) {
				t.Fatalf("%s: Distances(%d)[%d] = %d, oracle %d", tag, src, v, d, distOf(full, v))
			}
		}
		if got := g.Eccentricity(src); got != ecc {
			t.Fatalf("%s: Eccentricity(%d) = %d, oracle %d", tag, src, got, ecc)
		}
		if got := g.SumDistances(src); got != sum {
			t.Fatalf("%s: SumDistances(%d) = %d, oracle %d", tag, src, got, sum)
		}
		for _, k := range []int{0, 1, 2, n} {
			ktag := fmt.Sprintf("%s src=%d k=%d", tag, src, k)
			want, wd := o.bfs([]int{src}, k)
			h.sameOrder(ktag+" BFSWithin", g.BFSWithin(src, k, dist), want)
			for v, d := range dist {
				if d != distOf(wd, v) {
					t.Fatalf("%s: BFSWithin dist[%d] = %d, oracle %d", ktag, v, d, distOf(wd, v))
				}
			}
			h.sameOrder(ktag+" BFSWithinScratch", g.BFSWithinScratch(src, k, h.s), want)
			h.sameScratchDist(ktag+" BFSWithinScratch", n, wd)
			h.sameOrder(ktag+" CSR.BFSWithin", h.csr.BFSWithin(src, k, h.s), want)
			h.sameScratchDist(ktag+" CSR.BFSWithin", n, wd)
		}
	}

	// Multi-source: no source, one source twice, and a few with repeats.
	sets := [][]int{nil}
	if n > 0 {
		a, b, c := h.rng.Intn(n), h.rng.Intn(n), h.rng.Intn(n)
		sets = append(sets, []int{a, a}, []int{a, b, c, b, a})
	}
	for _, set := range sets {
		srcs := make([]int32, len(set))
		for i, v := range set {
			srcs[i] = int32(v)
		}
		for _, k := range []int{0, 1, 2, n} {
			mtag := fmt.Sprintf("%s MultiBFSWithinScratch(%v, %d)", tag, set, k)
			want, wd := o.bfs(set, k)
			h.sameOrder(mtag, g.MultiBFSWithinScratch(srcs, k, h.s), want)
			h.sameScratchDist(mtag, n, wd)
		}
	}

	// All-vertex entry points and connectivity.
	wantEcc, wantSum := make([]int, n), make([]int, n)
	var wantComps [][]int
	assigned := make([]bool, n)
	for v := 0; v < n; v++ {
		visited, d := o.bfs([]int{v}, n)
		for w := 0; w < n; w++ {
			wantSum[v] += distOf(d, w)
			wantEcc[v] = max(wantEcc[v], distOf(d, w))
		}
		if !assigned[v] {
			slices.Sort(visited)
			for _, w := range visited {
				assigned[w] = true
			}
			wantComps = append(wantComps, visited)
		}
	}
	if got := g.AllEccentricities(); !slices.Equal(got, wantEcc) {
		t.Fatalf("%s: AllEccentricities = %v, oracle %v", tag, got, wantEcc)
	}
	if got := g.AllSumDistances(); !slices.Equal(got, wantSum) {
		t.Fatalf("%s: AllSumDistances = %v, oracle %v", tag, got, wantSum)
	}
	if got, want := g.IsConnected(), len(wantComps) <= 1; got != want {
		t.Fatalf("%s: IsConnected = %v, oracle %v", tag, got, want)
	}
	gotComps := g.Components()
	if len(gotComps) != len(wantComps) {
		t.Fatalf("%s: Components = %v, oracle %v", tag, gotComps, wantComps)
	}
	for i := range wantComps {
		if !slices.Equal(gotComps[i], wantComps[i]) {
			t.Fatalf("%s: Components = %v, oracle %v", tag, gotComps, wantComps)
		}
	}
}

// TestTraversalsMatchOracleOnEditSequences drives seeded sequences of
// interleaved AddEdge / RemoveEdge and, after every edit, compares every
// traversal — results and visit order — with the oracle. The sizes
// bracket the degenerate graphs and the 64-vertex word boundary other
// packages pack bitsets on; consecutive sequences change n in both
// directions under one Scratch and one CSR.
func TestTraversalsMatchOracleOnEditSequences(t *testing.T) {
	h := &oracleHarness{t: t, s: new(Scratch)}
	sizes := []int{200, 1, 65, 2, 64, 7}
	edits := map[int]int{1: 2, 2: 6, 7: 24, 64: 10, 65: 10, 200: 4}
	for seq := 0; seq < 300; seq++ {
		n := sizes[seq%len(sizes)]
		h.rng = rand.New(rand.NewSource(int64(seq)))
		g, o := New(n), newOracle(n)
		// Every other sequence starts connected, so both the Unreachable
		// branches and whole-graph searches see edits.
		if seq/len(sizes)%2 == 1 {
			for v := 1; v < n; v++ {
				w := h.rng.Intn(v)
				g.AddEdge(v, w)
				o.add(v, w)
			}
		}
		for e := 0; e < edits[n]; e++ {
			u, v := h.rng.Intn(n), h.rng.Intn(n)
			if len(o.order[u]) > 0 && h.rng.Intn(5) < 2 {
				v = o.order[u][h.rng.Intn(len(o.order[u]))] // steer towards a removal
			}
			tag := fmt.Sprintf("seq %d n=%d edit %d (%d,%d)", seq, n, e, u, v)
			if o.has(u, v) {
				if got, want := g.RemoveEdge(u, v), o.remove(u, v); got != want {
					t.Fatalf("%s: RemoveEdge = %v, oracle %v", tag, got, want)
				}
			} else if got, want := g.AddEdge(u, v), o.add(u, v); got != want {
				t.Fatalf("%s: AddEdge = %v, oracle %v", tag, got, want)
			}
			sources := []int{u, v, h.rng.Intn(n)}
			if n <= 7 {
				sources = sources[:0]
				for w := 0; w < n; w++ {
					sources = append(sources, w)
				}
			}
			h.compare(tag, g, o, sources)
		}
	}
}
