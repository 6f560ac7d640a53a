package dynamics

import (
	"context"
	"math/rand"

	"repro/internal/game"
)

// Cell is one point of an experiment grid: a parameter pair (α, k) plus a
// seed index selecting one of the random starting networks (the paper uses
// 20 per parameter pair, §5.1).
type Cell struct {
	Alpha float64
	K     int
	Seed  int64
}

// CellResult pairs a cell with its dynamics outcome.
type CellResult struct {
	Cell   Cell
	Result Result
}

// Factory builds the starting state for a cell from a deterministic,
// cell-private RNG. Factories must not share mutable state across calls.
type Factory func(cell Cell, rng *rand.Rand) *game.State

// Grid expands the cross product of α values, k values and seeds
// 0..seeds-1 into cells, ordered α-major (matching the paper's sweep).
func Grid(alphas []float64, ks []int, seeds int) []Cell {
	cells := make([]Cell, 0, len(alphas)*len(ks)*seeds)
	for _, a := range alphas {
		for _, k := range ks {
			for s := 0; s < seeds; s++ {
				cells = append(cells, Cell{Alpha: a, K: k, Seed: int64(s)})
			}
		}
	}
	return cells
}

// Sweep runs one dynamics per cell on a fixed pool of GOMAXPROCS workers
// and returns results indexed like cells. Each cell derives a private RNG
// from baseSeed and its own coordinates (splitmix-style), so results are
// reproducible regardless of worker scheduling — the hpc-parallel
// "determinism independent of schedule" rule. Sweep is SweepContext with
// no cancellation, no reuse, and default options.
func Sweep(cells []Cell, base Config, factory Factory, baseSeed int64) []CellResult {
	out, _ := SweepContext(context.Background(), cells, base, factory, baseSeed, SweepOptions{})
	return out
}

// CellState reconstructs the starting state a sweep builds for one cell:
// the factory applied to the cell's private RNG stream derived from the
// base seed. Exported so differential tests (and debugging tools) can
// re-create the exact network a daemon-run cell started from and replay
// it through an independent implementation.
func CellState(factory Factory, cell Cell, baseSeed int64) *game.State {
	rng := rand.New(rand.NewSource(cellSeed(baseSeed, cell)))
	return factory(cell, rng)
}

// cellSeed mixes the base seed with the cell coordinates into an
// independent stream seed (splitmix64 finalizer).
func cellSeed(base int64, c Cell) int64 {
	x := uint64(base)
	for _, v := range []uint64{
		uint64(int64(c.Alpha * 1e6)),
		uint64(int64(c.K)),
		uint64(c.Seed),
	} {
		x += 0x9e3779b97f4a7c15 + v
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x & 0x7fffffffffffffff)
}
