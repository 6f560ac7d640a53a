package dynamics_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/gen"
	"repro/internal/ncgio"
)

// TestCheckpointBytesMatchReference pins the sweep-facing guarantee of
// the event-driven engine: every cell of a sweep marshals to exactly the
// checkpoint bytes the naive evaluate-everyone loop of reference_test.go
// produces for it. This is what lets resume, caching, and replication mix
// checkpoints written before and after dirty-set activation.
func TestCheckpointBytesMatchReference(t *testing.T) {
	cells := dynamics.Grid([]float64{0.5, 2, 8}, []int{2, 1000}, 2)
	factory := func(cell dynamics.Cell, rng *rand.Rand) *game.State {
		return game.FromGraphRandomOwners(gen.RandomTree(14, rng), rng)
	}
	for _, variant := range []game.Variant{game.Max, game.Sum} {
		cfg := dynamics.DefaultConfig(variant, 0, 0)
		for i, got := range dynamics.Sweep(cells, cfg, factory, 42) {
			cell := cells[i]
			ref := cfg
			ref.Alpha, ref.K = cell.Alpha, cell.K
			want := dynamics.RunReference(dynamics.CellState(factory, cell, 42), ref, dynamics.RoundRobin, nil)
			la, err := ncgio.MarshalCellResult(got)
			if err != nil {
				t.Fatal(err)
			}
			lb, err := ncgio.MarshalCellResult(dynamics.CellResult{Cell: cell, Result: want})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(la, lb) {
				t.Fatalf("%v cell %+v: checkpoint bytes differ between engine and reference:\n%s\n%s",
					variant, cell, la, lb)
			}
		}
	}
}
