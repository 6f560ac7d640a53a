package bestresponse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/game"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The completion oracle is the executable specification of both
// worst-case cost differences: SUMNCG's Δ (Prop. 2.2) and MAXNCG's
// (Prop. 2.1). A player knows the subgraph H induced by her k-ball (§1),
// and an interior vertex has all of its neighbours inside the ball, so a
// network consistent with her view can differ from H only behind frontier
// vertices (distance exactly k). The oracle builds each completion
// explicitly — the view alone, or the view plus one hidden cloud adjacent
// to exactly one non-empty subset of the frontier — measures the deviation
// on it by plain BFS, summed over every vertex of the completion (SUM) or
// as the change of the player's eccentricity (MAX), and keeps the worst.
// It shares no code with package view or with the Evaluator.

// cloudSize is the number of hidden vertices in a cloud. They are pairwise
// non-adjacent twins, so one vertex of weight cloudSize stands for all of
// them: the twins share every distance, and a path through one of them
// runs through the first as well. A cloud whose vertices each end farther
// from the player makes the SUM worst case unbounded, whatever its size.
const cloudSize = 1000

// completions is u's k-view as the oracle reads it off the network: the
// ball's vertices, center first, their distances, and the induced
// adjacency with one spare row and column for the cloud.
type completions struct {
	orig  []int
	local map[int]int
	dist  []int
	adj   [][]bool // (b+1)×(b+1); index b is the cloud
	k     int
}

func newCompletions(g *graph.Graph, u, k int) *completions {
	c := &completions{orig: []int{u}, local: map[int]int{u: 0}, dist: []int{0}, k: k}
	for head := 0; head < len(c.orig); head++ {
		if c.dist[head] == k {
			continue
		}
		for _, w := range g.Neighbors(c.orig[head]) {
			if _, seen := c.local[int(w)]; !seen {
				c.local[int(w)] = len(c.orig)
				c.orig = append(c.orig, int(w))
				c.dist = append(c.dist, c.dist[head]+1)
			}
		}
	}
	b := len(c.orig)
	c.adj = make([][]bool, b+1)
	for i := range c.adj {
		c.adj[i] = make([]bool, b+1)
	}
	for i, v := range c.orig {
		for _, w := range g.Neighbors(v) {
			if j, ok := c.local[int(w)]; ok {
				c.adj[i][j] = true
			}
		}
	}
	return c
}

// frontier lists the locals at distance exactly k.
func (c *completions) frontier() []int {
	var out []int
	for l, d := range c.dist {
		if d == c.k {
			out = append(out, l)
		}
	}
	return out
}

// oracleBFS returns the distances from the center (local 0) over the
// first m vertices of adj; graph.Unreachable marks the ones it misses.
func oracleBFS(adj [][]bool, m int) []int {
	d := make([]int, m)
	for i := range d {
		d[i] = graph.Unreachable
	}
	d[0] = 0
	for q := append(make([]int, 0, m), 0); len(q) > 0; q = q[1:] {
		v := q[0]
		for w := 0; w < m; w++ {
			if adj[v][w] && d[w] == graph.Unreachable {
				d[w] = d[v] + 1
				q = append(q, w)
			}
		}
	}
	return d
}

// worstDelta is the largest cost difference, over every completion of u's
// view, between strategy and u's current strategy, for SUM and for MAX:
// InfiniteCost for a target outside the view, a vertex the deviation
// disconnects, or (SUM) a cloud the deviation pushes away. inner is the
// view alone's SUM difference over the interior only, the frontier's
// savings left out (the rule before they were counted).
func (c *completions) worstDelta(s *game.State, u int, alpha float64, strategy []int) (sum, ecc, inner float64) {
	b := len(c.orig)
	before := c.adj
	after := make([][]bool, b+1)
	for i := range after {
		after[i] = append([]bool(nil), c.adj[i]...)
	}
	// G′: u drops the edges only she pays for, then buys strategy.
	for _, w := range s.Strategy(u) {
		if l, ok := c.local[w]; ok && !s.Buys(w, u) {
			after[0][l], after[l][0] = false, false
		}
	}
	for _, w := range strategy {
		l, ok := c.local[w]
		if !ok {
			return game.InfiniteCost, game.InfiniteCost, game.InfiniteCost // outside the local strategy space
		}
		after[0][l], after[l][0] = true, true
	}
	build := alpha * float64(len(strategy)-s.BoughtCount(u))
	front := c.frontier()
	sum, ecc = math.Inf(-1), math.Inf(-1)
	for mask := 0; mask < 1<<len(front); mask++ {
		m := b // the view alone
		if mask != 0 {
			m = b + 1
		}
		for i, f := range front {
			on := mask>>i&1 != 0
			before[f][b], before[b][f], after[f][b], after[b][f] = on, on, on, on
		}
		d, d2 := oracleBFS(before, m), oracleBFS(after, m)
		usage, interior, e, e2, unbounded := 0, 0, 0, 0, false
		for v := 0; v < m; v++ {
			if d2[v] >= graph.Unreachable {
				return game.InfiniteCost, game.InfiniteCost, game.InfiniteCost
			}
			weight := 1
			if v == b {
				weight, unbounded = cloudSize, d2[v] > d[v]
			} else if d[v] < c.k {
				interior += d2[v] - d[v]
			}
			usage += weight * (d2[v] - d[v])
			e, e2 = max(e, d[v]), max(e2, d2[v])
		}
		if mask == 0 {
			inner = build + float64(interior)
		}
		delta := build + float64(usage)
		if unbounded {
			delta = game.InfiniteCost
		}
		sum, ecc = max(sum, delta), max(ecc, build+float64(e2-e))
	}
	return sum, ecc, inner
}

// oracleTally counts what the checked instances covered: frontierGain
// counts the finite Δs below the interior-only sum (the rule before the
// frontier's savings were counted), frontierOnly the improving moves that
// rule missed.
type oracleTally struct {
	instances, improving, unbounded, frontierGain, frontierOnly int
}

// checkOracle enumerates every σ′ ⊆ view∖{u} of player u at radius k ≥ 1
// and pins, to the oracle, SumDelta and its reference, MaxEvaluate's
// difference against the current strategy, and the Improving flags of the
// exhaustive SUM responder (some σ′ improves) and of the greedy and
// large-neighborhood ones (some single add, drop or swap improves).
func checkOracle(t *testing.T, tag string, e *Evaluator, s *game.State, u, k int, alpha float64, tally *oracleTally) {
	t.Helper()
	c := newCompletions(s.Graph(), u, k)
	b := len(c.orig)
	current := s.Strategy(u)
	inCurrent := map[int]bool{}
	for _, w := range current {
		inCurrent[w] = true
	}
	maxCur := MaxEvaluate(s, u, k, alpha, current)
	bestAny, bestSingle := 0.0, 0.0
	for mask := 0; mask < 1<<(b-1); mask++ {
		var strategy []int
		added, addsBuyIn := 0, false
		for l := 1; l < b; l++ {
			if mask>>(l-1)&1 == 0 {
				continue
			}
			w := c.orig[l]
			strategy = append(strategy, w)
			if !inCurrent[w] {
				added++
				addsBuyIn = addsBuyIn || s.Buys(w, u)
			}
		}
		dropped := len(current) - (len(strategy) - added)

		want, wantMax, inner := c.worstDelta(s, u, alpha, strategy)
		if got := SumDelta(s, u, k, alpha, strategy); !costsEqual(got, want) {
			t.Fatalf("%s σ′=%v: SumDelta %v, oracle %v", tag, strategy, got, want)
		}
		if ref := refSumDelta(s, u, k, alpha, strategy); !costsEqual(ref, want) {
			t.Fatalf("%s σ′=%v: refSumDelta %v, oracle %v", tag, strategy, ref, want)
		}
		gotMax := game.InfiniteCost
		if cost := MaxEvaluate(s, u, k, alpha, strategy); cost < game.InfiniteCost {
			gotMax = cost - maxCur
		}
		if !costsEqual(gotMax, wantMax) {
			t.Fatalf("%s σ′=%v: MaxEvaluate difference %v, oracle %v", tag, strategy, gotMax, wantMax)
		}

		tally.instances++
		if want < -epsilon {
			tally.improving++
		}
		if want >= game.InfiniteCost {
			tally.unbounded++
		} else if want < inner {
			tally.frontierGain++
			if want < -epsilon && inner >= -epsilon {
				tally.frontierOnly++
			}
		}
		bestAny = min(bestAny, want)
		if !addsBuyIn && added <= 1 && dropped <= 1 && added+dropped > 0 {
			bestSingle = min(bestSingle, want)
		}
	}
	exh := e.SumBestResponseExhaustive(s, u, k, alpha, b)
	if exh.Improving != (bestAny < -epsilon) || (exh.Improving && !costsEqual(exh.Cost, bestAny)) {
		t.Fatalf("%s: exhaustive improving %v cost %v, oracle best %v", tag, exh.Improving, exh.Cost, bestAny)
	}
	for name, r := range map[string]Response{
		"greedy":             e.SumGreedyResponse(s, u, k, alpha),
		"large-neighborhood": e.SumLargeNeighborhoodResponse(s, u, k, alpha),
	} {
		if r.Improving != (bestSingle < -epsilon) {
			t.Fatalf("%s: %s improving %v, oracle best single move %v", tag, name, r.Improving, bestSingle)
		}
	}
}

// TestCompletionOracle checks every σ′ of every player on seeded
// preferential-attachment trees of 5–8 vertices (every other one with two
// extra edges) with random owners, at k ∈ {1, 2, 3} and α ∈ {0.1, 0.5, 1,
// 2}, over views of at most 8 vertices and 4 frontier vertices.
func TestCompletionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	e := NewEvaluator()
	var tally oracleTally
	for tree := 0; tree < 80; tree++ {
		n := 5 + rng.Intn(4)
		g := gen.PreferentialAttachmentTree(n, rng)
		for extra := 0; tree%2 == 1 && extra < 2; {
			if a, b := rng.Intn(n), rng.Intn(n); a != b && !g.HasEdge(a, b) {
				g.AddEdge(a, b)
				extra++
			}
		}
		s := game.NewState(n)
		for _, ed := range g.Edges() {
			if rng.Intn(2) == 0 {
				s.Buy(ed.U, ed.V)
			} else {
				s.Buy(ed.V, ed.U)
			}
		}
		for u := 0; u < n; u++ {
			for _, k := range []int{1, 2, 3} {
				c := newCompletions(s.Graph(), u, k)
				if len(c.orig) > 8 || len(c.frontier()) > 4 {
					continue
				}
				for _, alpha := range []float64{0.1, 0.5, 1, 2} {
					tag := fmt.Sprintf("tree=%d edges=%v u=%d k=%d α=%g", tree, s.Graph().Edges(), u, k, alpha)
					checkOracle(t, tag, e, s, u, k, alpha, &tally)
				}
			}
		}
	}
	t.Logf("%+v", tally)
	if tally.improving == 0 || tally.unbounded == 0 || tally.frontierOnly == 0 {
		t.Fatalf("covered %+v; want improving, unbounded and frontier-only improving moves", tally)
	}
}

// FuzzSumDelta pins SumDelta and the SUM responders' Improving flags to the
// oracle on states of at most 8 players decoded like FuzzMaxBestResponse's:
// byte 0 picks n, byte 1 the player, byte 2 the radius, byte 3 the price,
// then two bits per vertex pair — no edge, bought by the lower endpoint, by
// the higher, by both.
func FuzzSumDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 1, 0, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55})
	f.Add([]byte{6, 2, 0, 1, 0x12, 0x40, 0x09, 0x81})
	f.Add([]byte{7, 3, 2, 2, 0x41, 0x10, 0x04, 0x01, 0x40, 0x10})
	f.Add([]byte{5, 1, 1, 3, 0xff, 0xff, 0xff})
	ks := []int{1, 2, 3, 1000}
	alphas := []float64{0, 0.1, 0.5, 1, 2, 3.5, 1e6}
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		n := 1 + at(0)%8
		u := at(1) % n
		k := ks[at(2)%len(ks)]
		alpha := alphas[at(3)%len(alphas)]
		s := game.NewState(n)
		bit := 32
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				owners := at(bit/8) >> (bit % 8) & 3
				if owners&1 != 0 {
					s.Buy(a, b)
				}
				if owners&2 != 0 {
					s.Buy(b, a)
				}
				bit += 2
			}
		}
		var tally oracleTally
		checkOracle(t, fmt.Sprintf("n=%d u=%d k=%d α=%g %v", n, u, k, alpha, s.Graph().Edges()), NewEvaluator(), s, u, k, alpha, &tally)
	})
}
