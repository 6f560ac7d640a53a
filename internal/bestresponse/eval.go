package bestresponse

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/mds"
	"repro/internal/view"
)

// Evaluator owns the reusable buffers for computing many responses — the
// pooled view workspace, the candidate filters, and the MAXNCG
// neighborhood-power slab and dominating-set solver. Responses are
// byte-identical to the package-level functions (which run on a pooled
// Evaluator themselves); holding one explicitly just keeps a sweep's
// allocations O(workers) instead of O(moves).
//
// The power slab is the one buffer that is not linear in the ball: for a
// center-less view of rB vertices it holds levels·rB·⌈rB/64⌉ words, where
// levels <= min(h, diam+1), h is the highest target eccentricity the scan
// hands the solver under a cap of 2 or more (below the player's current
// cost, at most 2k+1) and diam the largest diameter of a component of the
// view: a few levels on every local view and every small-diameter graph,
// close to rB of them on a long path under full knowledge. The solver reads
// a level in place, as its slab. The slab is kept at its high-water mark.
//
// An Evaluator is not safe for concurrent use: give each worker its own.
type Evaluator struct {
	ws view.Workspace

	// fixed lists the locals whose center edge exists under every
	// candidate strategy: view vertices that bought an edge towards the
	// player (removing it is not the player's move).
	fixed []int32
	// flags marks locals excluded from greedy candidate loops.
	flags []uint8
	// curLoc holds the locals of the current strategy targets.
	curLoc []int32
	// edges is the scratch center-edge list handed to ResetBase.
	edges []int32
	// cand holds the exhaustive search's candidate locals.
	cand []int32

	// MAXNCG machinery: the closed-neighborhood powers of the center-less
	// view (level-major, see buildPowers), the ball rows they are raised
	// over, the forced-dominator list, the BFS distances of their reach,
	// the incumbent set and the solver.
	powers  []uint64
	rows    [][]int32
	forced  []int
	dist    []int32
	bestSet []int
	solver  mds.Solver

	// onSkip, set by tests only, sees every level the scan's carried bound
	// skips, with the cap its solve would have run under.
	onSkip func(h, limit int)
}

// ScanStats counts what one exact MAXNCG scan (MaxBestResponse) did: most
// of it is proving that no cheaper dominating set exists, and the counts
// say how much the root bounds and the carried lower bound disposed of.
// They depend on the call's inputs alone (a fresh and a reused Evaluator
// agree), and no checkpoint reads them.
type ScanStats struct {
	Levels int64 // target eccentricities below the player's current cost
	// Solves + Skipped is every level whose cap was computed; the rest of
	// Levels fell to the incumbent found at a higher level.
	Solves       int64 // levels handed to the dominating-set solver
	Skipped      int64 // levels the carried lower bound proved hopeless
	RootRefusals int64 // solves refused by the root bounds alone
	Nodes        int64 // search nodes expanded over all solves
	// BudgetExhausted counts the solves whose search ran out of node
	// budget (mds.Solver.Exhausted): each may have cost its call the
	// certificate that the response is a best one.
	BudgetExhausted int64
}

// Add sums o into s: a run's counts are its responses' sum.
func (s *ScanStats) Add(o ScanStats) {
	s.Levels += o.Levels
	s.Solves += o.Solves
	s.Skipped += o.Skipped
	s.RootRefusals += o.RootRefusals
	s.Nodes += o.Nodes
	s.BudgetExhausted += o.BudgetExhausted
}

const (
	flagCurrent uint8 = 1 << iota // local is a current strategy target
	flagBuysIn                    // local bought an edge towards the player
)

// NewEvaluator returns an empty Evaluator; buffers grow on first use.
func NewEvaluator() *Evaluator { return &Evaluator{} }

// evalPool backs the package-level convenience functions.
var evalPool = sync.Pool{New: func() any { return NewEvaluator() }}

// prepare extracts u's view into the workspace and classifies the
// center's incident edges.
func (e *Evaluator) prepare(s *game.State, u, k int) {
	e.ws.Extract(s.Graph(), u, k)
	e.fixed = e.fixed[:0]
	for _, l := range e.ws.CenterAdj {
		if s.Buys(int(e.ws.Orig[l]), u) {
			e.fixed = append(e.fixed, l)
		}
	}
}

// SumDelta is the Evaluator form of the package-level SumDelta.
func (e *Evaluator) SumDelta(s *game.State, u, k int, alpha float64, strategy []int) float64 {
	e.prepare(s, u, k)
	e.edges = append(e.edges[:0], e.fixed...)
	for _, w := range strategy {
		l := e.ws.LocalOf(w)
		if l < 0 {
			return game.InfiniteCost // outside the local strategy space
		}
		e.edges = append(e.edges, int32(l))
	}
	e.ws.ResetBase(e.edges)
	return e.sumDelta(alpha, len(strategy), s.BoughtCount(u))
}

// sumDelta is SUMNCG's Δ of the workspace's center edges, a candidate of
// candLen bought edges against bought now (InfiniteCost if inadmissible).
func (e *Evaluator) sumDelta(alpha float64, candLen, bought int) float64 {
	sum, ok := e.ws.ViewSum()
	if !ok {
		return game.InfiniteCost
	}
	return alpha*float64(candLen-bought) + float64(sum-e.ws.ViewBase())
}

// growFlags sizes and zero-fills assumptions for the per-local filter.
func (e *Evaluator) growFlags(b int) {
	if cap(e.flags) < b {
		e.flags = make([]uint8, b)
	}
	e.flags = e.flags[:b]
}

// markCandidates fills flags and curLoc for a greedy scan over the
// current strategy; the caller must clearFlags afterwards.
func (e *Evaluator) markCandidates(s *game.State, u int, current []int) {
	e.growFlags(e.ws.Size())
	for _, l := range e.fixed {
		e.flags[l] |= flagBuysIn
	}
	e.curLoc = e.curLoc[:0]
	for _, w := range current {
		// Strategy targets are at distance 1, hence always in the view.
		l := int32(e.ws.LocalOf(w))
		e.curLoc = append(e.curLoc, l)
		e.flags[l] |= flagCurrent
	}
}

func (e *Evaluator) clearFlags() {
	for _, l := range e.fixed {
		e.flags[l] = 0
	}
	for _, l := range e.curLoc {
		e.flags[l] = 0
	}
}

// baseWithout fills e.edges with fixed ∪ curLoc minus curLoc[i].
func (e *Evaluator) baseWithout(i int) {
	e.edges = append(e.edges[:0], e.fixed...)
	e.edges = append(e.edges, e.curLoc[:i]...)
	e.edges = append(e.edges, e.curLoc[i+1:]...)
}

// move identifies the best greedy move found so far.
type move struct {
	kind int // 0 none, 1 add, 2 remove, 3 swap
	i    int // index into current (remove/swap)
	l    int32
}

// materialize turns a greedy move into a fresh sorted global strategy.
func (e *Evaluator) materialize(current []int, m move) []int {
	switch m.kind {
	case 1: // add
		out := make([]int, 0, len(current)+1)
		out = append(out, current...)
		out = append(out, int(e.ws.Orig[m.l]))
		sort.Ints(out)
		return out
	case 2: // remove
		out := make([]int, 0, len(current)-1)
		out = append(out, current[:m.i]...)
		out = append(out, current[m.i+1:]...)
		return out // current is sorted, so the remainder is too
	case 3: // swap
		out := make([]int, 0, len(current))
		out = append(out, current[:m.i]...)
		out = append(out, current[m.i+1:]...)
		out = append(out, int(e.ws.Orig[m.l]))
		sort.Ints(out)
		return out
	default:
		return append([]int(nil), current...)
	}
}

// greedyScan runs the shared single-move loop (additions, removals,
// swaps — in exactly that candidate order) over the workspace, scoring
// each candidate with eval(candLen) on the workspace's maintained state.
// The strict epsilon tie-break keeps the earliest best candidate, like
// the reference implementations.
func (e *Evaluator) greedyScan(current []int, bestScore float64, eval func(candLen int) float64) (float64, move, bool) {
	b := e.ws.Size()
	best := move{}
	improving := false
	consider := func(score float64, m move) {
		if score < bestScore-epsilon {
			bestScore = score
			best = m
			improving = true
		}
	}
	// Additions.
	e.edges = append(e.edges[:0], e.fixed...)
	e.edges = append(e.edges, e.curLoc...)
	e.ws.ResetBase(e.edges)
	for l := 1; l < b; l++ {
		if e.flags[l] != 0 {
			continue
		}
		mark := e.ws.Mark()
		e.ws.AddEdgeRelax(int32(l))
		d := eval(len(current) + 1)
		e.ws.Undo(mark)
		consider(d, move{kind: 1, l: int32(l)})
	}
	// Removals.
	for i := range current {
		e.baseWithout(i)
		e.ws.ResetBase(e.edges)
		consider(eval(len(current)-1), move{kind: 2, i: i})
	}
	// Swaps.
	for i := range current {
		e.baseWithout(i)
		e.ws.ResetBase(e.edges)
		for l := 1; l < b; l++ {
			if e.flags[l] != 0 {
				continue
			}
			mark := e.ws.Mark()
			e.ws.AddEdgeRelax(int32(l))
			d := eval(len(current))
			e.ws.Undo(mark)
			consider(d, move{kind: 3, i: i, l: int32(l)})
		}
	}
	return bestScore, best, improving
}

// radiusZeroResponse is the answer of every single-move responder (greedy
// and large-neighborhood, either objective) at k = 0, where the scans
// below do not apply: they place the current targets in the view, at
// distance 1. The view is {u}, so there is nothing to add or swap in, and
// a strategy that keeps a current target names a vertex outside the view,
// which costs InfiniteCost. The one finite move drops a sole target: it
// saves α and changes no distance u can see. cur and dropped score the
// current and the empty strategy.
func radiusZeroResponse(current []int, cur, dropped float64) Response {
	if len(current) == 1 && dropped < cur-epsilon {
		return Response{Strategy: []int{}, Cost: dropped, CurrentCost: cur, Improving: true}
	}
	return Response{Strategy: slices.Clone(current), Cost: cur, CurrentCost: cur}
}

// SumGreedyResponse is the Evaluator form of the package-level
// SumGreedyResponse: one step of the descent in large.go.
func (e *Evaluator) SumGreedyResponse(s *game.State, u, k int, alpha float64) Response {
	return e.descend(s, u, k, alpha, game.Sum, 1)
}

// SumBestResponseExhaustive is the Evaluator form of the package-level
// SumBestResponseExhaustive.
func (e *Evaluator) SumBestResponseExhaustive(s *game.State, u, k int, alpha float64, maxCandidates int) SumExhaustiveResult {
	e.prepare(s, u, k)
	b := e.ws.Size()
	e.cand = e.cand[:0]
	for l := 1; l < b; l++ {
		if s.Buys(int(e.ws.Orig[l]), u) {
			continue
		}
		e.cand = append(e.cand, int32(l))
	}
	if len(e.cand) > maxCandidates {
		return SumExhaustiveResult{Feasible: false}
	}
	bought := s.BoughtCount(u)
	e.ws.ResetBase(e.fixed)
	bestDelta := 0.0
	bestMask := -1
	improving := false
	for mask := 0; mask < 1<<len(e.cand); mask++ {
		e.edges = e.edges[:0]
		for i, l := range e.cand {
			if mask&(1<<i) != 0 {
				e.edges = append(e.edges, l)
			}
		}
		mark := e.ws.Mark()
		e.ws.AddEdgesRelax(e.edges)
		d := e.sumDelta(alpha, len(e.edges), bought)
		e.ws.Undo(mark)
		if d < bestDelta-epsilon {
			bestDelta = d
			bestMask = mask
			improving = true
		}
	}
	var bestStrategy []int
	if bestMask < 0 {
		bestStrategy = s.Strategy(u) // already sorted
	} else {
		bestStrategy = make([]int, 0, bits.OnesCount(uint(bestMask)))
		for i, l := range e.cand {
			if bestMask&(1<<i) != 0 {
				bestStrategy = append(bestStrategy, int(e.ws.Orig[l]))
			}
		}
		sort.Ints(bestStrategy)
	}
	return SumExhaustiveResult{
		Response: Response{
			Strategy:    bestStrategy,
			Cost:        bestDelta,
			CurrentCost: 0,
			Improving:   improving,
		},
		Feasible: true,
	}
}

// buildPowers fills e.powers with the closed-neighborhood powers of the
// center-less view H∖{u} for levels 0…top-1 and returns how many levels
// it stored: row j of level t is {i : d(j,i) <= t} as a bitset over the
// rB rest vertices (rest j = local j+1). Each level is one
// graph.PowerStep over the ball rows from the level below it. It stops at
// the first level that equals its predecessor, since every later level
// does too; level t of the view is stored level min(t, returned-1).
func (e *Evaluator) buildPowers(rB, top int) int {
	e.powers = e.powers[:0]
	if top == 0 {
		return 0
	}
	words := (rB + 63) / 64
	stride := rB * words
	e.powers = slices.Grow(e.powers, stride)[:stride]
	clear(e.powers)
	e.rows = e.rows[:0]
	for j := 0; j < rB; j++ {
		e.powers[j*words+j/64] |= 1 << (j % 64)
		e.rows = append(e.rows, e.ws.BallAdj(int32(j+1)))
	}
	for t := 1; t < top; t++ {
		e.powers = slices.Grow(e.powers, stride)[:(t+1)*stride]
		if !graph.PowerStep(e.rows, 1, words, e.powers[(t-1)*stride:t*stride], e.powers[t*stride:]) {
			e.powers = e.powers[:t*stride]
			return t
		}
	}
	return top
}

// capOne is mds.Solver.Solve under cap 1 on level h-1, from the forced
// set's reach (its eccentricity in the center-less view): the empty set
// and no node when it covers N^{h-1}, else a root refusal, Proved 1.
func capOne(reach, h int) (ok bool, nodes, proved int) {
	if reach < h {
		return true, 0, 0
	}
	return false, 1, 1
}

// MaxBestResponse is the Evaluator form of the package-level
// MaxBestResponse. A level whose cap is 1 is decided by capOne from the
// forced set's reach, one BFS per call; the powers are built once, at the
// first level whose cap is 2 or more, up to that level.
//
// The scan over target eccentricities h runs downwards and carries lb, a
// certified lower bound on the number of extra dominators: a refused solve
// under cap L proves that none smaller than L exists, a successful one
// finds the minimum, and the minimum only grows as h falls because the
// neighborhoods N^{h-1}[v] shrink. A level whose cap is at most lb can
// only be refused, so it is skipped. Skipping refusals leaves every
// successful solve — its cap, its neighborhoods, the optimum its search
// meets first — as it was, which is why the bound may be carried while an
// incumbent set may not. A solve that ran out of search budget certifies
// nothing (mds.Solver.Proved) and leaves lb alone.
func (e *Evaluator) MaxBestResponse(s *game.State, u, k int, alpha float64) Response {
	e.prepare(s, u, k)
	cur := alpha*float64(s.BoughtCount(u)) + float64(e.ws.ViewEcc())
	rB := e.ws.Size() - 1 // the center-less view H∖{u}; rest j = local j+1
	if rB == 0 {
		// Lone player: buying nothing is the unique (vacuous) strategy.
		return Response{Strategy: []int{}, Cost: 0, CurrentCost: cur, Improving: cur > epsilon}
	}

	// Forced dominators: view vertices that bought an edge towards u —
	// prepare's fixed list as rest ids, ascending like the locals the ball
	// BFS hands the center's neighbors.
	e.forced = e.forced[:0]
	for _, l := range e.fixed {
		e.forced = append(e.forced, int(l)-1)
	}

	// Candidate eccentricities run from min(2k+1, rB) down, skipping every
	// h >= cur-ε (k is compared before doubling: 2k+1 wraps for huge k).
	hTop := rB
	if k < rB {
		hTop = min(rB, 2*k+1)
	}
	for hTop >= 1 && float64(hTop) >= cur-epsilon {
		hTop--
	}
	st := ScanStats{Levels: int64(hTop)}

	// Descending h with the incumbent cap, exactly like the reference:
	// identical neighborhoods feed an identical branch-and-bound.
	bestCost := cur
	improved := false
	lb := 0
	levels, reach := 0, -1 // neither built yet
	for h := hTop; h >= 1; h-- {
		if float64(h) >= bestCost-epsilon {
			continue // cost >= h can no longer improve on the incumbent
		}
		limit := rB + 1
		if alpha > 0 {
			// Compared before converting: the quotient leaves int's range
			// for a small enough α.
			if useful := (bestCost - float64(h)) / alpha; useful < float64(limit) {
				limit = int(math.Ceil(useful))
			}
		}
		if limit <= lb {
			st.Skipped++
			if e.onSkip != nil {
				e.onSkip(h, limit)
			}
			continue
		}
		var extra []int
		var ok bool
		var nodes, proved int
		if limit == 1 {
			if reach < 0 {
				e.dist = slices.Grow(e.dist[:0], rB+1)[:rB+1]
				reach = e.ws.BallEccFrom(e.fixed, e.dist)
			}
			ok, nodes, proved = capOne(reach, h)
		} else {
			if levels == 0 {
				levels = e.buildPowers(rB, h)
			}
			stride := rB * ((rB + 63) / 64) // level h-1, row j N^{h-1}[j], is the slab
			extra, ok = e.solver.Solve(rB, e.powers[min(h-1, levels-1)*stride:][:stride], e.forced, limit)
			nodes, proved = e.solver.Nodes(), e.solver.Proved()
			if e.solver.Exhausted() {
				st.BudgetExhausted++
			}
		}
		lb = max(lb, proved)
		st.Solves++
		st.Nodes += int64(nodes)
		if !ok {
			// A search that gets past its root expands a child too, so one
			// node means the root bounds refused.
			if nodes == 1 {
				st.RootRefusals++
			}
			continue
		}
		cost := alpha*float64(len(extra)) + float64(h)
		if cost < bestCost-epsilon {
			bestCost = cost
			e.bestSet = append(e.bestSet[:0], extra...) // extra is the solver's
			improved = true
		}
	}

	if !improved {
		return Response{Strategy: s.Strategy(u), Cost: cur, CurrentCost: cur, Scan: st}
	}
	strategy := make([]int, 0, len(e.bestSet))
	for _, j := range e.bestSet {
		strategy = append(strategy, int(e.ws.Orig[j+1]))
	}
	sort.Ints(strategy)
	return Response{Strategy: strategy, Cost: bestCost, CurrentCost: cur, Improving: true, Scan: st}
}

// MaxGreedyResponse is the Evaluator form of the package-level
// MaxGreedyResponse: one step of the descent in large.go.
func (e *Evaluator) MaxGreedyResponse(s *game.State, u, k int, alpha float64) Response {
	return e.descend(s, u, k, alpha, game.Max, 1)
}
