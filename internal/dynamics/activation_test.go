package dynamics

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/game"
	"repro/internal/graph"
)

// TestPostMoveSearchWithinPreMoveSearch is why dirtySet.apply searches
// only the pre-move graph: over seeded start states of three families and
// radii from 0 to full knowledge, for random moves (swaps, redundant buys
// of edges the other endpoint owns, drops, fresh sets), every player the
// bounded search from the move's sources reaches in the post-move graph
// was reached in the pre-move graph.
func TestPostMoveSearchWithinPreMoveSearch(t *testing.T) {
	const n = 30
	families := []struct {
		name    string
		factory Factory
	}{
		{"gnp", ERFactory(n, 0.15)},
		{"tree", TreeFactory(n)},
		{"grid-delete", GridDeleteFactory(n, 0.2)},
	}
	scratch := graph.GetScratch(n)
	defer graph.PutScratch(scratch)
	pre := make([]bool, n)
	for _, fam := range families {
		for _, k := range []int{0, 1, 2, 3, 1000} {
			for seed := int64(0); seed < 4; seed++ {
				s := CellState(fam.factory, Cell{K: k, Seed: seed}, 1)
				rng := rand.New(rand.NewSource(seed))
				for move := 0; move < 80; move++ {
					u := rng.Intn(n)
					strategy := randomMove(s, u, rng)
					srcs := s.StrategyDiff(u, strategy, []int32{int32(u)})
					clear(pre)
					for _, v := range s.Graph().MultiBFSWithinScratch(srcs, k, scratch) {
						pre[v] = true
					}
					s.SetStrategy(u, strategy)
					for _, v := range s.Graph().MultiBFSWithinScratch(srcs, k, scratch) {
						if !pre[v] {
							t.Fatalf("%s k=%d seed %d move %d (player %d → %v): %d within k of a source after the move only",
								fam.name, k, seed, move, u, strategy, v)
						}
					}
				}
			}
		}
	}
}

// randomMove proposes a sorted strategy for u: her current one with one
// target swapped, plus a redundant buy of an edge a neighbour owns, minus
// one target, or a fresh random set.
func randomMove(s *game.State, u int, rng *rand.Rand) []int {
	n := s.N()
	other := func() int {
		v := rng.Intn(n - 1)
		if v >= u {
			v++
		}
		return v
	}
	out := s.Strategy(u)
	switch rng.Intn(4) {
	case 0:
		if len(out) > 0 {
			out[rng.Intn(len(out))] = other()
		}
	case 1:
		for _, w := range s.Graph().Neighbors(u) {
			if !s.Buys(u, int(w)) {
				out = append(out, int(w))
				break
			}
		}
	case 2:
		if len(out) > 0 {
			out = slices.Delete(out, 0, 1)
		}
	default:
		out = out[:0]
		for i := rng.Intn(4); i > 0; i-- {
			out = append(out, other())
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestWarmupEvaluations pins the responder calls of the front-door
// benchmark's warm-up sweep — G(60, 0.1), α ∈ {0.5, 1, 2, 5}, k ∈ {2, 3},
// 32 seeds, base seed 7, the daemon's default budgets — at the count the
// engine made when it searched both the pre- and the post-move graph: one
// search marks the same players.
func TestWarmupEvaluations(t *testing.T) {
	cfg := Config{Variant: game.Max, NewResponder: NewMaxResponder, MaxRounds: 100, CycleCheckAfter: 25}
	cells := Grid([]float64{0.5, 1, 2, 5}, []int{2, 3}, 32)
	total := 0
	for _, r := range Sweep(cells, cfg, ERFactory(60, 0.1), 7) {
		total += r.Result.Evaluations
	}
	if total != 33768 {
		t.Fatalf("warm-up grid made %d evaluations, want 33768", total)
	}
}

// TestDirtySetCountsItsCleanPlayers drives the counted dirtySet and an
// always-searching copy of the rule it replaced (search on every move,
// mark what the search reaches) through the settle and apply steps of
// real runs: the engine's loop, step by step, checked against
// RunScheduledContext's evaluations, moves and final profile. After every
// step the dirty bits must be equal and nclean must count the clean
// players; settling a clean player again must change neither. It logs how
// many searches the count let apply skip, and there must be some.
func TestDirtySetCountsItsCleanPlayers(t *testing.T) {
	skipped, moves := 0, 0
	for _, n := range []int{1, 2, 9, 40} {
		scratch := graph.GetScratch(n)
		defer graph.PutScratch(scratch)
		for _, k := range []int{0, 1, 2, 3, n} {
			for _, schedule := range []Schedule{RoundRobin, FixedPermutation, RandomEachRound} {
				for seed := int64(0); seed < 3; seed++ {
					label := fmt.Sprintf("n=%d k=%d %v seed %d", n, k, schedule, seed)
					proto := randomState(n, rand.New(rand.NewSource(seed)))
					cfg := Config{Variant: game.Max, Alpha: 1, K: k, NewResponder: NewMaxResponder, MaxRounds: 30, CycleCheckAfter: 30}
					want, err := RunScheduledContext(context.Background(), proto.Clone(), cfg, schedule, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					s, rng, respond := proto.Clone(), rand.New(rand.NewSource(seed)), NewMaxResponder()
					d := newDirtySet(n, k)
					ref := slices.Repeat([]bool{true}, n)
					check := func(step string, u int) {
						t.Helper()
						clean := 0
						for v := range n {
							if (d.dirty[v] == 1) != ref[v] {
								t.Fatalf("%s, %s of player %d: player %d dirty=%d, the always-searching rule says %v", label, step, u, v, d.dirty[v], ref[v])
							}
							if !ref[v] {
								clean++
							}
						}
						if d.nclean != clean {
							t.Fatalf("%s, %s of player %d: nclean=%d, %d players are clean", label, step, u, d.nclean, clean)
						}
					}
					var order []int
					if schedule != RoundRobin {
						order = rng.Perm(n)
					}
					evals, total := 0, 0
					for round := 1; round <= cfg.MaxRounds; round++ {
						if schedule == RandomEachRound {
							order = rng.Perm(n)
						}
						moved := 0
						for idx := range n {
							u := idx
							if order != nil {
								u = order[idx]
							}
							if d.clean(u) {
								d.settle(u)
								check("a second settle", u)
								continue
							}
							evals++
							r := respond(s, u, k, cfg.Alpha)
							if !r.Improving {
								d.settle(u)
								ref[u] = false
								check("the settle", u)
								continue
							}
							srcs := s.StrategyDiff(u, r.Strategy, []int32{int32(u)})
							for _, v := range s.Graph().MultiBFSWithinScratch(srcs, k, scratch) {
								ref[v] = true
							}
							d.srcs = d.srcs[:0]
							d.apply(s, u, r.Strategy)
							if len(d.srcs) == 0 {
								skipped++
							}
							moved++
							check("the move", u)
						}
						total += moved
						if moved == 0 {
							break
						}
					}
					d.release()
					if evals != want.Evaluations || total != want.TotalMoves || s.Fingerprint() != want.Final.Fingerprint() {
						t.Fatalf("%s: the steps made %d evaluations and %d moves, the engine %d and %d (same profile: %v)",
							label, evals, total, want.Evaluations, want.TotalMoves, s.Fingerprint() == want.Final.Fingerprint())
					}
					moves += total
				}
			}
		}
	}
	t.Logf("%d of %d moves needed no search", skipped, moves)
	if skipped == 0 {
		t.Fatal("no move was made with every player dirty: the skip is never taken")
	}
}
