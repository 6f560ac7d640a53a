package view

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// This file pins Workspace to two independent descriptions of a view. One
// is refExtract, the three-pass extraction Extract replaced, kept verbatim:
// local ids, row order and CenterAdj order are tie-breaks downstream, hence
// checkpoint bytes, and only the old code says what they were. The other is
// a map-backed graph with a slice-queue BFS that shares no code with the
// workspace or with internal/graph's traversal kernel: it says what the
// ball, its distances and the maintained aggregates mean.

// refExtract is Workspace.Extract as it stood before the one-pass form:
// ball BFS, a counting pass and a filling pass over every ball adjacency,
// then the center's adjacency and the baselines, whose distance sum now
// runs over the whole ball as SUMNCG's Δ does. (The sizing of the
// incremental buffers that followed did not change and is left out; the
// reference workspace is only ever read for what an extraction fills.)
func (ws *Workspace) refExtract(g *graph.Graph, u, k int) {
	if k < 0 {
		panic("view: negative radius")
	}
	// Clear the previous extraction's global->local entries.
	for _, gv := range ws.Orig {
		ws.lid[gv] = 0
	}
	if g.N() > len(ws.lid) {
		ws.lid = make([]int32, g.N())
	}
	ws.K = k
	ws.Orig = ws.Orig[:0]
	ws.Dist = ws.Dist[:0]

	// Ball BFS over the global graph; lid doubles as the visited mark.
	ws.lid[u] = 1
	ws.Orig = append(ws.Orig, int32(u))
	ws.Dist = append(ws.Dist, 0)
	for head := 0; head < len(ws.Orig); head++ {
		d := ws.Dist[head]
		if int(d) == k {
			continue
		}
		for _, w := range g.Neighbors(int(ws.Orig[head])) {
			if ws.lid[w] == 0 {
				ws.Orig = append(ws.Orig, w)
				ws.Dist = append(ws.Dist, d+1)
				ws.lid[w] = int32(len(ws.Orig))
			}
		}
	}
	b := len(ws.Orig)

	// Local CSR of the ball, center arcs excluded.
	if cap(ws.off) < b+1 {
		ws.off = make([]int32, b+1)
	}
	ws.off = ws.off[:b+1]
	ws.off[0] = 0
	ws.off[1] = 0 // the center's row is empty
	deg := 0
	for l := 1; l < b; l++ {
		for _, w := range g.Neighbors(int(ws.Orig[l])) {
			if int(w) != u && ws.lid[w] != 0 {
				deg++
			}
		}
		ws.off[l+1] = int32(deg)
	}
	if cap(ws.tgt) < deg {
		ws.tgt = make([]int32, deg)
	}
	ws.tgt = ws.tgt[:deg]
	pos := 0
	for l := 1; l < b; l++ {
		for _, w := range g.Neighbors(int(ws.Orig[l])) {
			if int(w) != u && ws.lid[w] != 0 {
				ws.tgt[pos] = ws.lid[w] - 1
				pos++
			}
		}
	}

	// Center adjacency, in the center's global adjacency order. Every
	// neighbor is at distance 1 <= k except when k == 0.
	ws.CenterAdj = ws.CenterAdj[:0]
	if k > 0 {
		for _, w := range g.Neighbors(u) {
			ws.CenterAdj = append(ws.CenterAdj, ws.lid[w]-1)
		}
	}

	// Baselines of the unmodified view.
	ws.viewBase = 0
	ws.viewEcc = 0
	for l := 0; l < b; l++ {
		d := ws.Dist[l]
		ws.viewBase += int64(d)
		if d > ws.viewEcc {
			ws.viewEcc = d
		}
	}
}

// oracleGraph is an undirected graph as a map of neighbor sets.
type oracleGraph map[int]map[int]bool

func (o oracleGraph) toggle(a, b int, on bool) {
	for _, e := range [2][2]int{{a, b}, {b, a}} {
		if o[e[0]] == nil {
			o[e[0]] = map[int]bool{}
		}
		if on {
			o[e[0]][e[1]] = true
		} else {
			delete(o[e[0]], e[1])
		}
	}
}

// distFrom returns the distance from the nearest of srcs to every vertex
// they reach.
func (o oracleGraph) distFrom(srcs ...int) map[int]int {
	dist := map[int]int{}
	for _, src := range srcs {
		dist[src] = 0
	}
	for queue := slices.Clone(srcs); len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		for w := range o[v] {
			if _, seen := dist[w]; !seen {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// checkExtract compares ws, freshly extracted at (u, k), with the
// reference workspace extracted by refExtract and with the oracle.
func checkExtract(t *testing.T, tag string, ws, ref *Workspace, o oracleGraph, n, u, k int) {
	t.Helper()
	if ws.K != k || ref.K != k {
		t.Fatalf("%s: K=%d, reference %d", tag, ws.K, ref.K)
	}
	if !slices.Equal(ws.Orig, ref.Orig) || !slices.Equal(ws.Dist, ref.Dist) {
		t.Fatalf("%s: Orig/Dist %v %v, reference %v %v", tag, ws.Orig, ws.Dist, ref.Orig, ref.Dist)
	}
	if !slices.Equal(ws.CenterAdj, ref.CenterAdj) {
		t.Fatalf("%s: CenterAdj %v, reference %v", tag, ws.CenterAdj, ref.CenterAdj)
	}
	for i, l := range ws.CenterAdj {
		// The exact MAX responder lists its forced dominators in CenterAdj
		// order and relies on that being ascending.
		if int(l) != i+1 {
			t.Fatalf("%s: CenterAdj %v is not 1..deg", tag, ws.CenterAdj)
		}
	}
	if ws.ViewEcc() != ref.ViewEcc() || ws.ViewBase() != ref.ViewBase() {
		t.Fatalf("%s: ecc %d base %d, reference %d %d", tag, ws.ViewEcc(), ws.ViewBase(), ref.ViewEcc(), ref.ViewBase())
	}
	b := ws.Size()
	for l := 0; l < b; l++ {
		if !slices.Equal(ws.BallAdj(int32(l)), ref.BallAdj(int32(l))) {
			t.Fatalf("%s: row %d is %v, reference %v", tag, l, ws.BallAdj(int32(l)), ref.BallAdj(int32(l)))
		}
	}

	// The oracle: the ball is what BFS reaches within k, in distance order.
	dist := o.distFrom(u)
	local := map[int]int{}
	ecc, base := 0, int64(0)
	for l, gv := range ws.Orig {
		d, ok := dist[int(gv)]
		if !ok || d > k || d != int(ws.Dist[l]) || (l > 0 && ws.Dist[l] < ws.Dist[l-1]) {
			t.Fatalf("%s: local %d (global %d) at view distance %d, oracle %d (reached %v)", tag, l, gv, ws.Dist[l], d, ok)
		}
		if _, dup := local[int(gv)]; dup {
			t.Fatalf("%s: global %d extracted twice", tag, gv)
		}
		local[int(gv)] = l
		ecc = max(ecc, d)
		base += int64(d)
	}
	inBall := 0
	for _, d := range dist {
		if d <= k {
			inBall++
		}
	}
	if b != inBall || ws.Orig[0] != int32(u) {
		t.Fatalf("%s: ball of %d vertices centered at %d, oracle %d at %d", tag, b, ws.Orig[0], inBall, u)
	}
	if ws.ViewEcc() != ecc || ws.ViewBase() != base {
		t.Fatalf("%s: ecc %d base %d, oracle %d %d", tag, ws.ViewEcc(), ws.ViewBase(), ecc, base)
	}
	for gv := -1; gv <= n+200; gv++ { // past n: a reused lid is longer than this graph
		want, ok := local[gv]
		if !ok {
			want = -1
		}
		if got := ws.LocalOf(gv); got != want {
			t.Fatalf("%s: LocalOf(%d)=%d, oracle %d", tag, gv, got, want)
		}
	}
	for l := 0; l < b; l++ {
		want := map[int32]bool{}
		if l > 0 {
			for w := range o[int(ws.Orig[l])] {
				if lw, ok := local[w]; ok && lw != 0 {
					want[int32(lw)] = true
				}
			}
		}
		row := ws.BallAdj(int32(l))
		for _, w := range row {
			if !want[w] {
				t.Fatalf("%s: row %d holds %d; oracle neighbors in the ball %v", tag, l, w, want)
			}
		}
		if len(row) != len(want) {
			t.Fatalf("%s: row %d is %v; oracle neighbors in the ball %v", tag, l, row, want)
		}
	}
	wantAdj := 0
	if k > 0 {
		wantAdj = len(o[u])
	}
	if len(ws.CenterAdj) != wantAdj {
		t.Fatalf("%s: center has %d view neighbors, oracle %d", tag, len(ws.CenterAdj), wantAdj)
	}
	for _, l := range ws.CenterAdj {
		if !o[u][int(ws.Orig[l])] {
			t.Fatalf("%s: CenterAdj names local %d, not a neighbor of the center", tag, l)
		}
	}
}

// checkMaintained compares the workspace's maintained distances and
// aggregates, with the center adjacent to exactly the locals in edges,
// against a fresh BFS on the oracle's copy of that graph: the induced
// ball, its center arcs replaced by edges.
func checkMaintained(t *testing.T, tag string, ws *Workspace, o oracleGraph, edges map[int32]bool) {
	t.Helper()
	b := ws.Size()
	u := int(ws.Orig[0])
	inBall := map[int]bool{}
	for _, gv := range ws.Orig[1:] {
		inBall[int(gv)] = true
	}
	h := oracleGraph{}
	for v := range inBall {
		for w := range o[v] {
			if inBall[w] {
				h.toggle(v, w, true)
			}
		}
	}
	for l := range edges {
		h.toggle(u, int(ws.Orig[l]), true)
	}
	dist := h.distFrom(u)

	sum, ecc := 0, 0
	admissible := true
	for l := 0; l < b; l++ {
		d, ok := dist[int(ws.Orig[l])]
		if !ok {
			d = graph.Unreachable
		}
		if got := ws.CurDist(l); got != d {
			t.Fatalf("%s: CurDist(%d)=%d, oracle %d", tag, l, got, d)
		}
		sum += d
		ecc = max(ecc, d)
		if !ok || (int(ws.Dist[l]) == ws.K && d > ws.K) {
			admissible = false // Prop. 2.2: unreached, or a frontier vertex left the radius
		}
	}
	if ws.SumAll() != sum || ws.EccAll() != ecc {
		t.Fatalf("%s: SumAll %d EccAll %d, oracle %d %d", tag, ws.SumAll(), ws.EccAll(), sum, ecc)
	}
	viewSum := int64(sum)
	if !admissible {
		viewSum = 0
	}
	if got, ok := ws.ViewSum(); got != viewSum || ok != admissible {
		t.Fatalf("%s: ViewSum %d %v, oracle %d %v", tag, got, ok, viewSum, admissible)
	}
}

// exerciseMaintained drives ResetBase, AddEdgeRelax, AddEdgesRelax and
// nested Mark/Undo through random center-edge sets on the current
// extraction, checking the maintained state after every step.
func exerciseMaintained(t *testing.T, tag string, ws *Workspace, o oracleGraph, rng *rand.Rand) {
	t.Helper()
	b := ws.Size()
	pick := func() int32 { return int32(1 + rng.Intn(b-1)) }
	for round := 0; round < 3; round++ {
		base := map[int32]bool{}
		var list []int32
		if b > 1 {
			for i := rng.Intn(4); i > 0; i-- {
				l := pick()
				base[l] = true
				list = append(list, l) // repeats are legal
			}
		}
		ws.ResetBase(list)
		checkMaintained(t, tag+" reset", ws, o, base)
		if b == 1 {
			continue
		}
		outer := ws.Mark()
		one := pick()
		ws.AddEdgeRelax(one)
		withOne := map[int32]bool{one: true}
		for l := range base {
			withOne[l] = true
		}
		checkMaintained(t, tag+" add", ws, o, withOne)

		inner := ws.Mark()
		batch := []int32{pick(), pick(), pick()}
		ws.AddEdgesRelax(batch)
		withBatch := map[int32]bool{batch[0]: true, batch[1]: true, batch[2]: true}
		for l := range withOne {
			withBatch[l] = true
		}
		checkMaintained(t, tag+" batch", ws, o, withBatch)

		ws.Undo(inner)
		checkMaintained(t, tag+" undo batch", ws, o, withOne)
		ws.Undo(outer)
		checkMaintained(t, tag+" undo add", ws, o, base)
	}
}

// TestWorkspaceMatchesOracle toggles random edges on graphs whose sizes
// shrink and grow under one reused Workspace — stale lid, off, tgt or histo
// entries from a larger predecessor would show — and checks every
// extraction and the maintained state on top of it.
func TestWorkspaceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261001))
	var ws, ref Workspace
	isolated, whole, allFrontier, cut := 0, 0, 0, 0
	for _, n := range []int{7, 200, 2, 65, 1, 64, 200, 7} {
		g := graph.New(n)
		o := oracleGraph{}
		for step := 0; step < 3*n+2; step++ {
			if a, b := rng.Intn(n), rng.Intn(n); a != b {
				on := rng.Intn(4) > 0
				if on {
					g.AddEdge(a, b)
				} else {
					g.RemoveEdge(a, b)
				}
				o.toggle(a, b, on)
			}
			if n > 10 && step%7 != 0 {
				continue
			}
			u := rng.Intn(n)
			for _, k := range []int{0, 1, 2, 3, n} {
				tag := fmt.Sprintf("n=%d step=%d u=%d k=%d", n, step, u, k)
				ws.Extract(g, u, k)
				ref.refExtract(g, u, k)
				checkExtract(t, tag, &ws, &ref, o, n, u, k)
				exerciseMaintained(t, tag, &ws, o, rng)
				switch b := ws.Size(); {
				case k > 0 && b == 1:
					isolated++
				case b == n && n > 2:
					whole++
				case k == 1:
					allFrontier++ // every vertex but the center is at distance k
				case b < len(o.distFrom(u)):
					cut++ // the radius, not the component, bounds the ball
				}
			}
		}
	}
	if isolated == 0 || whole == 0 || allFrontier == 0 || cut == 0 {
		t.Fatalf("covered %d isolated centers, %d whole-graph balls, %d all-frontier balls, %d radius-bounded balls; want all four",
			isolated, whole, allFrontier, cut)
	}
}

// TestBallEccFromMatchesOracle checks BallEccFrom, and BallDistFrom for a
// single source, against a BFS on the oracle's copy of the ball without
// its center, in local ids: the distance from the nearest source to every
// local (unreach32 for the center and every local the sources do not
// reach), and the eccentricity of the sources over the locals other than
// the center. Source sets are empty or random locals; one reused
// Workspace sees balls from the center alone (k = 0) to the whole graph,
// where a scan's last write lands in the queue's slot past the ball.
func TestBallEccFromMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	var ws Workspace
	empty, split, whole := 0, 0, 0
	for _, n := range []int{1, 2, 9, 60, 130, 7} {
		g := graph.New(n)
		o := oracleGraph{}
		for step := 0; step < 2*n+2; step++ {
			if a, b := rng.Intn(n), rng.Intn(n); a != b {
				on := rng.Intn(5) > 0
				if on {
					g.AddEdge(a, b)
				} else {
					g.RemoveEdge(a, b)
				}
				o.toggle(a, b, on)
			}
			u := rng.Intn(n)
			for _, k := range []int{0, 1, 2, 3, n} {
				ws.Extract(g, u, k)
				b := ws.Size()
				rest := oracleGraph{} // the center-less ball, in local ids
				for l := 1; l < b; l++ {
					rest[l] = map[int]bool{}
					for w := range o[int(ws.Orig[l])] {
						if lw := ws.LocalOf(w); lw > 0 {
							rest.toggle(l, lw, true)
						}
					}
				}
				if b > 2 && len(rest.distFrom(1)) < b-1 {
					split++
				}
				for trial := 0; trial < 4; trial++ {
					var srcs []int
					if trial > 0 && b > 1 {
						for _, l := range rng.Perm(b - 1)[:1+rng.Intn(min(b-1, 3))] {
							srcs = append(srcs, l+1)
						}
					}
					tag := fmt.Sprintf("n=%d step=%d u=%d k=%d srcs=%v", n, step, u, k, srcs)
					want := rest.distFrom(srcs...)
					wantEcc := 0
					for l := 1; l < b; l++ {
						if d, ok := want[l]; !ok {
							wantEcc = graph.Unreachable
						} else if wantEcc != graph.Unreachable {
							wantEcc = max(wantEcc, d)
						}
					}
					src32 := make([]int32, len(srcs))
					for i, l := range srcs {
						src32[i] = int32(l)
					}
					out := make([]int32, b)
					if got := ws.BallEccFrom(src32, out); got != wantEcc {
						t.Fatalf("%s: BallEccFrom = %d, oracle %d", tag, got, wantEcc)
					}
					checkBallDist(t, tag, out, want)
					if len(srcs) == 1 {
						clear(out)
						ws.BallDistFrom(src32[0], out)
						checkBallDist(t, tag+" BallDistFrom", out, want)
					}
					switch {
					case len(srcs) == 0:
						empty++
					case b == n && n > 2 && len(want) == b-1:
						whole++
					}
				}
			}
		}
	}
	t.Logf("%d empty source sets, %d balls split by their center, %d whole-graph balls fully reached", empty, split, whole)
	if empty == 0 || split == 0 || whole == 0 {
		t.Fatalf("covered %d empty source sets, %d balls split by their center, %d whole-graph balls fully reached; want all three",
			empty, split, whole)
	}
}

// checkBallDist compares a BallEccFrom distance row with the oracle's
// distances, which name only the locals reached.
func checkBallDist(t *testing.T, tag string, out []int32, want map[int]int) {
	t.Helper()
	for l, d := range out {
		w, ok := want[l]
		if !ok {
			w = int(unreach32)
		}
		if int(d) != w {
			t.Fatalf("%s: local %d at %d, oracle %d (reached %v)", tag, l, d, w, ok)
		}
	}
}
