package experiments

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/gen"
)

// DefaultParams returns CI-scale parameters with a fixed seed.
func DefaultParams() Params { return Params{Scale: ScaleCI, Seed: 1} }

func TestRunSweepCheckpointResumesWithoutRecomputation(t *testing.T) {
	dir := t.TempDir()
	p := DefaultParams()
	p.CheckpointDir = dir
	cells := dynamics.Grid([]float64{0.5, 2}, []int{2, 1000}, 2)
	cfg := baseConfig(game.Max)

	first := runSweep(p, "test", cells, cfg, treeFactory(12), 3)
	if len(first) != len(cells) {
		t.Fatalf("first sweep: %d results, want %d", len(first), len(cells))
	}
	files, err := filepath.Glob(filepath.Join(dir, "test-*.jsonl"))
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint files = %v, %v", files, err)
	}

	// Second invocation must come entirely from the checkpoint: a factory
	// that fails the test proves no cell is recomputed.
	tripwire := func(_ dynamics.Cell, _ *rand.Rand) *game.State {
		t.Error("cell recomputed despite complete checkpoint")
		return game.NewState(2)
	}
	second := runSweep(p, "test", cells, cfg, tripwire, 3)
	if len(second) != len(first) {
		t.Fatalf("resumed sweep: %d results, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i].Cell != second[i].Cell ||
			first[i].Result.FinalStats != second[i].Result.FinalStats ||
			first[i].Result.Final.Fingerprint() != second[i].Result.Final.Fingerprint() {
			t.Fatalf("cell %d differs after checkpoint resume", i)
		}
	}
}

func TestRunSweepCheckpointMatchesInMemory(t *testing.T) {
	cells := dynamics.Grid([]float64{1}, []int{2, 1000}, 3)
	cfg := baseConfig(game.Max)
	factory := func(_ dynamics.Cell, rng *rand.Rand) *game.State {
		return game.FromGraphRandomOwners(gen.RandomTree(10, rng), rng)
	}
	plain := runSweep(DefaultParams(), "mem", cells, cfg, factory, 5)

	p := DefaultParams()
	p.CheckpointDir = t.TempDir()
	ckpt := runSweep(p, "mem", cells, cfg, factory, 5)
	for i := range plain {
		if plain[i].Result.Final.Fingerprint() != ckpt[i].Result.Final.Fingerprint() {
			t.Fatalf("cell %d: checkpointed sweep diverges from in-memory sweep", i)
		}
	}
}

func TestRunSweepBadCheckpointDirFallsBack(t *testing.T) {
	// A file where the directory should be makes checkpointing impossible;
	// the sweep must still produce results.
	dir := t.TempDir()
	blocked := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocked, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.CheckpointDir = filepath.Join(blocked, "sub")
	cells := dynamics.Grid([]float64{1}, []int{2}, 1)
	factory := func(_ dynamics.Cell, rng *rand.Rand) *game.State {
		return game.FromGraphRandomOwners(gen.RandomTree(8, rng), rng)
	}
	res := runSweep(p, "fallback", cells, baseConfig(game.Max), factory, 1)
	if len(res) != 1 || res[0].Result.Final == nil {
		t.Fatal("fallback sweep produced no results")
	}
}
