package view

import (
	"slices"
	"sync"

	"repro/internal/graph"
)

// unreach32 is the in-workspace sentinel for "not reached"; it is
// converted to graph.Unreachable at the accessor boundary so callers see
// the same arithmetic as the full-slice BFS kernels.
const unreach32 = int32(1) << 30

// Workspace is the mutable, reusable form of a player's view, built for
// evaluating many candidate deviations of one player against one
// extraction. Extract fills it with the radius-K ball around the center
// (local ids in BFS order — identical to View's) plus a flat local CSR of
// the ball with every center-incident arc removed; the center's edge set
// is then toggled apply/undo-style:
//
//	ws.ResetBase(edges)   // full O(ball) recompute: center adjacent to edges
//	mark := ws.Mark()
//	ws.AddEdgeRelax(w)    // decrease-only re-relax from the new endpoint
//	... read SumAll/EccAll/ViewSum ...
//	ws.Undo(mark)         // O(touched) rollback
//
// Because every candidate edge is incident to the center, a deviation can
// only shorten distances through its own first hop; AddEdgeRelax re-relaxes
// exactly the improved region and journals every change, so evaluating a
// candidate costs O(vertices whose distance actually changed) instead of a
// fresh BFS plus clone of the whole view.
//
// Alongside the distances the workspace maintains, incrementally and
// undoably, the aggregate statistics every responder needs: the sum of
// distances and unreached count over the whole ball (SUMNCG's Δ and the
// swap objectives) and the count of frontier vertices pushed beyond the
// radius (SUMNCG's guard).
//
// A Workspace is not safe for concurrent use. Get one from the pool with
// GetWorkspace and return it with PutWorkspace.
type Workspace struct {
	// K is the view radius of the last Extract.
	K int
	// Orig maps local ids (ball BFS order, center first) to global ids.
	Orig []int32
	// Dist holds the view distance from the center to each local vertex
	// (the distance in the induced ball, which equals the distance in G).
	Dist []int32
	// CenterAdj lists the locals adjacent to the center in the view, in
	// the center's global adjacency order.
	CenterAdj []int32

	// Ball CSR with every center-incident arc removed: the targets of
	// local v (v != 0) are tgt[off[v]:off[v+1]]. Removing the center is
	// sound for every distance-from-center query — a shortest path from
	// the center never revisits it — and doubles as the "view minus
	// center" graph MAXNCG's dominating-set reduction needs.
	off []int32
	tgt []int32

	// lid maps global ids to local+1 (0 = outside the ball). Cleared by
	// walking the previous Orig, so reuse costs O(previous ball), not O(n).
	lid []int32

	// viewBase is Σ Dist over the whole ball: the baseline SUMNCG's Δ
	// subtracts.
	viewBase int64
	// viewEcc is the eccentricity of the center within the view.
	viewEcc int32

	// cur is the maintained distance-from-center under the active center
	// edge set, plus the derived aggregates.
	cur      []int32
	histo    []int32
	histoHi  int32
	sumReach int64
	unreach  int32
	frontBad int32

	// journal of (local, previous distance) pairs for Undo.
	jv []int32
	jd []int32

	queue []int32
}

var workspacePool = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace borrows a Workspace from the shared pool.
func GetWorkspace() *Workspace { return workspacePool.Get().(*Workspace) }

// PutWorkspace returns a Workspace to the shared pool.
func PutWorkspace(ws *Workspace) { workspacePool.Put(ws) }

// Size returns the number of vertices in the ball, including the center.
func (ws *Workspace) Size() int { return len(ws.Orig) }

// LocalOf returns the local id of global vertex g, or -1 when g is
// outside the ball.
func (ws *Workspace) LocalOf(g int) int {
	if g < 0 || g >= len(ws.lid) {
		return -1
	}
	return int(ws.lid[g]) - 1
}

// ViewEcc returns the eccentricity of the center within the view.
func (ws *Workspace) ViewEcc() int { return int(ws.viewEcc) }

// ViewBase returns Σ Dist over the whole ball.
func (ws *Workspace) ViewBase() int64 { return ws.viewBase }

// Extract fills the workspace with the radius-k ball of u in g, replacing
// any previous contents. Local ids are assigned in ball BFS order — the
// same order view.Extract produces — so every downstream tie-break is
// preserved. The incremental state is left unset; call ResetBase before
// reading any aggregate.
//
// The ball CSR is written during the BFS itself, one level at a time:
// every neighbor of an interior vertex (distance < k) is in the ball and
// has its local id by the time that vertex's scan ends, and BFS order puts
// all interior rows before the first frontier row. Only the frontier
// (distance k) has neighbors outside the ball, so only its rows are
// filtered, afterwards. No scan branches on what it reads: it writes the
// next slot and advances by a flag. Every buffer keeps its high-water mark.
func (ws *Workspace) Extract(g *graph.Graph, u, k int) {
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
	ws.CenterAdj = ws.CenterAdj[:0]
	ws.viewBase = 0

	// Ball BFS over the global graph; lid doubles as the visited mark. b
	// and t count the ball's vertices and the row slots written, and level
	// d is orig[lo:b] once its predecessor's rows are scanned.
	lid := ws.lid
	orig, dist, tgt := reserve(ws.Orig, 0, 1), reserve(ws.Dist, 0, 1), ws.tgt
	off := append(ws.off[:0], 0, 0) // the center's row is empty
	orig[0], lid[u] = int32(u), 1
	b, t, lo := 1, 0, 0
	for d := int32(0); lo < b; d++ {
		for l := lo; l < b; l++ {
			dist[l] = d
		}
		ws.viewBase += int64(d) * int64(b-lo)
		if int(d) == k {
			break
		}
		hi := b
		for _, v := range orig[lo:hi] {
			row := g.Neighbors(int(v))
			orig, tgt = reserve(orig, b, len(row)), reserve(tgt, t, len(row))
			for _, w := range row {
				lw := lid[w]
				fresh := flag(lw == 0)
				lw += int32(fresh * (b + 1))
				lid[w], orig[b] = lw, w
				b += fresh
				tgt[t] = lw - 1
				t += flag(lw != 1) // lid 1 is the center
			}
			off = append(off, int32(t))
		}
		if d == 0 { // the center's scan wrote its adjacency, in global order
			ws.CenterAdj = append(ws.CenterAdj, tgt[:t]...)
			off, t = off[:2], 0
		}
		lo = hi
		dist = reserve(dist, lo, b-lo)
	}
	// Frontier rows (max skips the center when k == 0 stopped the BFS); with
	// its mark cleared, one test drops the center and what is outside.
	lid[u] = 0
	for _, v := range orig[max(lo, 1):b] {
		row := g.Neighbors(int(v))
		tgt = reserve(tgt, t, len(row))
		for _, w := range row {
			tgt[t] = lid[w] - 1
			t += flag(lid[w] != 0)
		}
		off = append(off, int32(t))
	}
	lid[u] = 1
	ws.Orig, ws.Dist, ws.off, ws.tgt = orig[:b], dist[:b], off, tgt[:t]
	// BFS order is distance order: the last vertex is a farthest one.
	ws.viewEcc = ws.Dist[b-1]

	// Size the incremental buffers; histo must stay all-zero between
	// ResetBase calls, which fresh allocations and the reset loop both
	// guarantee.
	if cap(ws.cur) < b {
		ws.cur = make([]int32, b)
	}
	ws.cur = ws.cur[:b]
	if cap(ws.histo) < b+1 {
		ws.histo = make([]int32, b+1)
	} else {
		// Clear the previous use's entries at the old length before
		// reslicing: the new ball may be smaller than the old histoHi.
		for d := int32(0); d <= ws.histoHi; d++ {
			ws.histo[d] = 0
		}
		ws.histo = ws.histo[:b+1]
	}
	ws.histoHi = 0
	ws.jv = ws.jv[:0]
	ws.jd = ws.jd[:0]
}

// account folds vertex l's distance d into the aggregates with the given
// sign (+1 when d becomes live, -1 when it stops being live).
func (ws *Workspace) account(l, d int32, sign int32) {
	if d == unreach32 {
		ws.unreach += sign
		return
	}
	ws.sumReach += int64(sign) * int64(d)
	ws.histo[d] += sign
	if sign > 0 && d > ws.histoHi {
		ws.histoHi = d
	}
	if int(d) > ws.K && int(ws.Dist[l]) == ws.K {
		ws.frontBad += sign
	}
}

// ResetBase recomputes the maintained distances from scratch with the
// center adjacent to exactly the given locals (O(ball)). It discards any
// journaled candidate state.
func (ws *Workspace) ResetBase(edges []int32) {
	b := len(ws.Orig)
	for d := int32(0); d <= ws.histoHi; d++ {
		ws.histo[d] = 0
	}
	ws.histoHi = 0
	ws.sumReach, ws.unreach, ws.frontBad = 0, 0, 0
	ws.jv = ws.jv[:0]
	ws.jd = ws.jd[:0]

	for l := range ws.cur {
		ws.cur[l] = unreach32
	}
	ws.cur[0] = 0
	q := ws.queue[:0]
	for _, e := range edges {
		if ws.cur[e] > 1 {
			ws.cur[e] = 1
			q = append(q, e)
		}
	}
	for head := 0; head < len(q); head++ {
		v := q[head]
		d := ws.cur[v]
		for _, w := range ws.tgt[ws.off[v]:ws.off[v+1]] {
			if ws.cur[w] == unreach32 {
				ws.cur[w] = d + 1
				q = append(q, w)
			}
		}
	}
	ws.queue = q
	for l := 0; l < b; l++ {
		ws.account(int32(l), ws.cur[l], 1)
	}
}

// Mark returns an undo token for the current journal position.
func (ws *Workspace) Mark() int { return len(ws.jv) }

// setDist journals and applies a distance decrease for local l.
func (ws *Workspace) setDist(l, nd int32) {
	od := ws.cur[l]
	ws.jv = append(ws.jv, l)
	ws.jd = append(ws.jd, od)
	ws.account(l, od, -1)
	ws.cur[l] = nd
	ws.account(l, nd, 1)
}

// AddEdgeRelax adds the center edge to local w on top of the current
// state and re-relaxes distances (decrease-only) from the improved
// region. Pair with Undo(Mark()) to roll back. Only vertices whose
// distance strictly improves are expanded: distances are 1-Lipschitz
// along ball edges, so no improvement can propagate through an
// unimproved vertex.
func (ws *Workspace) AddEdgeRelax(w int32) {
	q := ws.queue[:0]
	if ws.cur[w] > 1 {
		ws.setDist(w, 1)
		q = append(q, w)
	}
	ws.relax(q)
}

// AddEdgesRelax is AddEdgeRelax for a batch of center edges, relaxed as
// one multi-source wave.
func (ws *Workspace) AddEdgesRelax(targets []int32) {
	q := ws.queue[:0]
	for _, w := range targets {
		if ws.cur[w] > 1 {
			ws.setDist(w, 1)
			q = append(q, w)
		}
	}
	ws.relax(q)
}

func (ws *Workspace) relax(q []int32) {
	for head := 0; head < len(q); head++ {
		v := q[head]
		d := ws.cur[v]
		for _, w := range ws.tgt[ws.off[v]:ws.off[v+1]] {
			if ws.cur[w] > d+1 {
				ws.setDist(w, d+1)
				q = append(q, w)
			}
		}
	}
	ws.queue = q
}

// Undo rolls the journal back to a Mark, restoring distances and
// aggregates in O(entries undone).
func (ws *Workspace) Undo(mark int) {
	for i := len(ws.jv) - 1; i >= mark; i-- {
		l, od := ws.jv[i], ws.jd[i]
		ws.account(l, ws.cur[l], -1)
		ws.cur[l] = od
		ws.account(l, od, 1)
	}
	ws.jv = ws.jv[:mark]
	ws.jd = ws.jd[:mark]
}

// CurDist returns the maintained distance from the center to local l
// (graph.Unreachable when unreached).
func (ws *Workspace) CurDist(l int) int {
	if ws.cur[l] == unreach32 {
		return graph.Unreachable
	}
	return int(ws.cur[l])
}

// SumAll returns the sum of maintained distances over the whole ball,
// counting graph.Unreachable per unreached vertex — the same arithmetic
// as summing a full-slice BFS.
func (ws *Workspace) SumAll() int {
	return int(ws.sumReach) + int(ws.unreach)*graph.Unreachable
}

// EccAll returns the maximum maintained distance over the ball
// (graph.Unreachable when any vertex is unreached).
func (ws *Workspace) EccAll() int {
	if ws.unreach > 0 {
		return graph.Unreachable
	}
	for d := ws.histoHi; d >= 0; d-- {
		if ws.histo[d] > 0 {
			return int(d)
		}
	}
	return 0
}

// ViewSum returns Σ cur over the whole ball and whether the candidate is
// admissible: false when a ball vertex became unreachable or a frontier
// vertex (Dist == K) was pushed beyond the radius (Prop. 2.2's guard).
func (ws *Workspace) ViewSum() (sum int64, ok bool) {
	if ws.unreach > 0 || ws.frontBad > 0 {
		return 0, false
	}
	return ws.sumReach, true
}

// BallAdj returns the ball-CSR row of local l: its neighbors within the
// ball, the center excluded (so every entry is >= 1, and the center's own
// row is empty). The slice aliases the workspace; callers must not write
// to it, and it is valid until the next Extract.
func (ws *Workspace) BallAdj(l int32) []int32 { return ws.tgt[ws.off[l]:ws.off[l+1]] }

// BallDistFrom runs a BFS from local src over the ball CSR (center
// excluded) into out, which must have length Size(). Unreached vertices —
// always including the center — get unreach32, larger than any real
// distance. The maintained incremental state is untouched.
func (ws *Workspace) BallDistFrom(src int32, out []int32) { ws.BallEccFrom([]int32{src}, out) }

// BallEccFrom is BallDistFrom from all of srcs at once, locals other than
// the center. It returns the eccentricity of the set in the center-less
// ball: the largest distance from it to a local other than the center, or
// graph.Unreachable when one is unreached (always, for an empty srcs and a
// ball that holds more than the center). The scan is branch-free like
// Extract's, so the queue has a slot past the Size()-1 locals it holds.
func (ws *Workspace) BallEccFrom(srcs, out []int32) int {
	for i := range out {
		out[i] = unreach32
	}
	q := reserve(ws.queue, 0, len(out))
	n := copy(q, srcs)
	for _, src := range srcs {
		out[src] = 0
	}
	d := int32(0) // the last dequeued local's distance, the largest
	for head := 0; head < n; head++ {
		v := q[head]
		d = out[v]
		for _, w := range ws.tgt[ws.off[v]:ws.off[v+1]] {
			ow := out[w]
			q[n] = w
			n += flag(ow == unreach32)
			out[w] = min(ow, d+1)
		}
	}
	ws.queue = q
	if n < len(out)-1 {
		return graph.Unreachable
	}
	return int(d)
}

// reserve returns s, s[:n] kept, with at least n+extra slots.
func reserve(s []int32, n, extra int) []int32 {
	if n+extra > len(s) {
		s = slices.Grow(s[:n], extra)
		s = s[:cap(s)]
	}
	return s
}

// flag is 1 for true, 0 for false: a SETcc, not a branch.
func flag(b bool) int {
	if b {
		return 1
	}
	return 0
}
