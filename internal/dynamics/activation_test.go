package dynamics

import (
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
