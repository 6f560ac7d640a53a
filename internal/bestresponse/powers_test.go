package bestresponse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/game"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mds"
)

// TestPowersMatchBFS pins buildPowers to the BFS it replaced: for every
// level t below top and every rest vertex j, the stored row is exactly
// {i : d(j,i) <= t} in the center-less view, where level t is read as
// stored level min(t, levels-1). Trees and stars fall apart when the
// center goes (rows must not leak across components), paths have as many
// distinct levels as vertices, dense graphs saturate after two or three
// levels, and the full-knowledge sizes put rB on both sides of the one-
// and two-word boundaries.
func TestPowersMatchBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	type tc struct {
		name string
		g    *graph.Graph
		k    int
	}
	cases := []tc{
		{"star", gen.Star(9), 1000},
		{"path", gen.Path(70), 1000},
		{"cycle", gen.Cycle(66), 1000},
		{"complete", gen.Complete(8), 1000},
		{"grid", gen.Grid(5, 13), 1000},
		{"pair", gen.Path(2), 1000},
	}
	for _, n := range []int{64, 65, 66, 129, 130} { // rB = n-1
		cases = append(cases,
			tc{fmt.Sprintf("tree%d", n), gen.RandomTree(n, rng), 1000},
			tc{fmt.Sprintf("gnp%d", n), gen.GNP(n, 6/float64(n), rng), 1000})
	}
	for _, k := range []int{1, 2, 3} {
		cases = append(cases,
			tc{fmt.Sprintf("tree/k=%d", k), gen.RandomTree(90, rng), k},
			tc{fmt.Sprintf("gnp/k=%d", k), gen.GNP(90, 0.05, rng), k})
	}

	var e Evaluator
	var dist []int32
	saturated, full := 0, 0
	for _, c := range cases {
		s := game.FromGraphRandomOwners(c.g, rng)
		for _, u := range []int{0, rng.Intn(s.N()), s.N() - 1} {
			e.prepare(s, u, c.k)
			rB := e.ws.Size() - 1
			words := (rB + 63) / 64
			dist = slices.Grow(dist[:0], rB+1)[:rB+1]
			for _, top := range []int{0, 1, 2, rB/2 + 1, rB} {
				if top > rB {
					continue
				}
				levels := e.buildPowers(rB, top)
				tag := fmt.Sprintf("%s u=%d rB=%d top=%d levels=%d", c.name, u, rB, top, levels)
				if levels > top || (levels == 0) != (top == 0) {
					t.Fatalf("%s: level count out of range", tag)
				}
				if len(e.powers) != levels*rB*words {
					t.Fatalf("%s: slab holds %d words, want %d", tag, len(e.powers), levels*rB*words)
				}
				if levels < top {
					saturated++
				} else {
					full++
				}
				level := func(t int) []uint64 { return e.powers[t*rB*words:][:rB*words] }
				if levels >= 2 && slices.Equal(level(levels-1), level(levels-2)) {
					t.Fatalf("%s: the last stored level repeats its predecessor", tag)
				}
				for j := 0; j < rB; j++ {
					e.ws.BallDistFrom(int32(j+1), dist)
					for lv := 0; lv < top; lv++ {
						row := level(min(lv, levels-1))[j*words:][:words]
						for i := 0; i < rB; i++ {
							got := row[i/64]&(1<<(i%64)) != 0
							if want := int(dist[i+1]) <= lv; got != want {
								t.Fatalf("%s: level %d row %d bit %d is %v, BFS distance %d", tag, lv, j, i, got, dist[i+1])
							}
						}
						if rB%64 != 0 && row[words-1]>>(rB%64) != 0 {
							t.Fatalf("%s: level %d row %d has bits beyond rB", tag, lv, j)
						}
					}
				}
			}
		}
	}
	if saturated == 0 || full == 0 {
		t.Fatalf("cases cover %d saturated and %d unsaturated builds; want both", saturated, full)
	}
}

// TestMaxBestResponseHugeRadius is the regression test for 2k+1 wrapping
// negative: every k at or above the diameter is full knowledge, so
// k = MaxInt must answer exactly like k = 1000 — on the fast path and on
// the reference. With α this small the scan also keeps going after its
// first improvement and later solves fail under a tight cap, so a fast
// path that kept the solver's slice rather than a copy would answer with
// a scribbled set here.
func TestMaxBestResponseHugeRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := game.FromGraphRandomOwners(gen.RandomTree(40, rng), rng)
	const alpha = 0.3
	moved := 0
	for u := 0; u < s.N(); u++ {
		want := refMaxBestResponse(s, u, 1000, alpha)
		if want.Improving {
			moved++
		}
		for _, k := range []int{1000, math.MaxInt/2 + 1, math.MaxInt} {
			tag := fmt.Sprintf("u=%d k=%d", u, k)
			checkResponse(t, "MaxBestResponse "+tag, MaxBestResponse(s, u, k, alpha), want)
			checkResponse(t, "refMaxBestResponse "+tag, refMaxBestResponse(s, u, k, alpha), want)
		}
	}
	if moved == 0 {
		t.Fatal("no player has an improving response; the instance pins nothing")
	}
}

// bfsLevel builds level t of the center-less view's closed-neighborhood
// powers for the view prepare left in e.ws from BallDistFrom, not from
// buildPowers: row j is {i : d(j,i) <= t}.
func bfsLevel(e *Evaluator, t int) [][]uint64 {
	rB := e.ws.Size() - 1
	dist := make([]int32, rB+1)
	rows := make([][]uint64, rB)
	for j := range rows {
		rows[j] = make([]uint64, (rB+63)/64)
		e.ws.BallDistFrom(int32(j+1), dist)
		for i := 0; i < rB; i++ {
			if int(dist[i+1]) <= t {
				rows[j][i/64] |= 1 << (i % 64)
			}
		}
	}
	return rows
}

// TestCapOneMatchesSolver pins the scan's cap-1 shortcut to the solver it
// stands in for: for every player and every level t of its center-less
// view, capOne on the forced set's reach answers exactly what
// mds.Solver.Solve does on the level-t rows under cap 1 — the same ok, an
// empty set, the same Nodes and Proved. Low owners give player 0 no
// forced dominator and a path's inner players a forced set on one side of
// a cut, where the reach is never; random owners give the rest.
func TestCapOneMatchesSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	var e Evaluator
	var solver mds.Solver
	var dist []int32
	empty, covering, never := 0, 0, 0
	for gi, g := range diffGraphs(rng) {
		for _, s := range []*game.State{game.FromGraphLowOwners(g), game.FromGraphRandomOwners(g, rng)} {
			for _, k := range []int{1, 2, 3, 1000} {
				for u := 0; u < s.N(); u++ {
					e.prepare(s, u, k)
					rB := e.ws.Size() - 1
					var forced []int
					for _, l := range e.fixed {
						forced = append(forced, int(l)-1)
					}
					dist = slices.Grow(dist[:0], rB+1)[:rB+1]
					reach := e.ws.BallEccFrom(e.fixed, dist)
					switch {
					case len(forced) == 0:
						empty++
					case reach == graph.Unreachable:
						never++
					case reach < rB:
						covering++
					}
					for lv := 0; lv < rB; lv++ {
						tag := fmt.Sprintf("g=%d u=%d k=%d forced=%v reach=%d t=%d", gi, u, k, forced, reach, lv)
						ok, nodes, proved := capOne(reach, lv+1)
						set, want := solver.Solve(rB, slices.Concat(bfsLevel(&e, lv)...), forced, 1)
						if ok != want || (ok && len(set) != 0) || nodes != solver.Nodes() || proved != solver.Proved() {
							t.Fatalf("%s: capOne says ok=%v nodes=%d proved=%d, the solver %v %v nodes=%d proved=%d",
								tag, ok, nodes, proved, set, want, solver.Nodes(), solver.Proved())
						}
					}
				}
			}
		}
	}
	if empty == 0 || covering == 0 || never == 0 {
		t.Fatalf("%d empty forced sets, %d covering ones, %d never reaching; want each", empty, covering, never)
	}
	t.Logf("%d empty forced sets, %d covering ones, %d never reaching", empty, covering, never)
}
