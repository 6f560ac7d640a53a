package dynamics

import (
	"math/rand"
	"testing"

	"repro/internal/game"
	"repro/internal/gen"
)

// BenchmarkRunTreeLocal measures one complete dynamics on a random tree
// with a local view — the workhorse of every figure experiment.
func BenchmarkRunTreeLocal(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		s := game.FromGraphRandomOwners(gen.RandomTree(60, rng), rng)
		Run(s, DefaultConfig(game.Max, 2, 3))
	}
}

// BenchmarkRunTreeFullKnowledge is the classical-game ablation (k = ∞).
func BenchmarkRunTreeFullKnowledge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		s := game.FromGraphRandomOwners(gen.RandomTree(60, rng), rng)
		Run(s, DefaultConfig(game.Max, 2, 1000))
	}
}

// BenchmarkRunBetterResponse swaps the exact responder for single-move
// better responses (schedule ablation from §2's dynamics discussion).
func BenchmarkRunBetterResponse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		s := game.FromGraphRandomOwners(gen.RandomTree(60, rng), rng)
		cfg := DefaultConfig(game.Max, 2, 3)
		cfg.Responder = newMaxGreedyResponder()
		Run(s, cfg)
	}
}

// BenchmarkSweep measures the parallel grid runner end to end.
func BenchmarkSweep(b *testing.B) {
	cells := Grid([]float64{1, 2}, []int{2, 4}, 2)
	factory := func(cell Cell, rng *rand.Rand) *game.State {
		return game.FromGraphRandomOwners(gen.RandomTree(40, rng), rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sweep(cells, DefaultConfig(game.Max, 0, 0), factory, int64(i))
	}
}

// BenchmarkIsLKE measures the equilibrium audit on a converged state.
func BenchmarkIsLKE(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := game.FromGraphRandomOwners(gen.RandomTree(60, rng), rng)
	cfg := DefaultConfig(game.Max, 2, 3)
	Run(s, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IsLKE(s, cfg)
	}
}
