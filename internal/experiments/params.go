// Package experiments reproduces the paper's evaluation (§5): Table I–II
// input statistics, Figures 5–10 dynamics studies, Figures 1–2
// construction renders, Figures 3–4 bound region maps, the §5.4 cycle
// census, the lower-bound audits, and the Corollary 3.14 and Theorem 4.4
// checks. All (registry.go) is the one list of them: each entry's driver
// returns a Report of rendered tables and checked verdicts, which
// ncg-experiments prints and the root benchmarks time. Every dynamics sweep
// is a sweepd.Spec submitted to the Runner that Params carries (runner.go):
// the drivers and the sweep daemon run, checkpoint, resume and cache a
// grid with the same code.
package experiments

// Scale selects experiment sizing.
type Scale int

const (
	// ScaleCI is a representative sub-grid sized for tests and benches.
	ScaleCI Scale = iota
	// ScalePaper reproduces the paper's full grids (§5.1): 15 α values ×
	// 12 k values × 20 seeds. Long-running; used by cmd/ncg-experiments
	// with -scale paper.
	ScalePaper
)

// Params carries the experiment configuration.
type Params struct {
	Scale Scale
	// Seed is the base seed for all derived per-cell RNGs.
	Seed int64

	// Optional overrides (nil/zero = use the scale's defaults). Tests and
	// ad-hoc cmd invocations use these to shrink or reshape the grids.
	AlphaGrid     []float64
	KGrid         []int
	SeedsOverride int
	TreeSizeGrid  []int
	DynTreeSize   int

	// Runner runs every dynamics sweep (Open); required by the drivers
	// that sweep, unused by the rest.
	Runner *Runner
}

// Alphas returns the α grid (§5.1 lists the paper's 15 values).
func (p Params) Alphas() []float64 {
	if p.AlphaGrid != nil {
		return p.AlphaGrid
	}
	if p.Scale == ScalePaper {
		return []float64{0.025, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1, 1.5, 2, 3, 5, 7, 10}
	}
	return []float64{0.1, 0.5, 1, 2, 5, 10}
}

// Ks returns the k grid (k = 1000 ≡ the classical full-knowledge game).
func (p Params) Ks() []int {
	if p.KGrid != nil {
		return p.KGrid
	}
	if p.Scale == ScalePaper {
		return []int{2, 3, 4, 5, 6, 7, 10, 15, 20, 25, 30, 1000}
	}
	return []int{2, 3, 4, 6, 1000}
}

// Seeds returns the number of random starting networks per cell (20 in
// the paper).
func (p Params) Seeds() int {
	if p.SeedsOverride > 0 {
		return p.SeedsOverride
	}
	if p.Scale == ScalePaper {
		return 20
	}
	return 5
}

// TreeSizes returns the random-tree vertex counts (Table I).
func (p Params) TreeSizes() []int {
	if p.TreeSizeGrid != nil {
		return p.TreeSizeGrid
	}
	if p.Scale == ScalePaper {
		return []int{20, 30, 50, 70, 100, 200}
	}
	return []int{20, 30, 50}
}

// ERConfigs returns the Erdős–Rényi (n, p) pairs of Table II.
func (p Params) ERConfigs() [][2]float64 {
	if p.Scale == ScalePaper {
		return [][2]float64{
			{100, 0.060}, {100, 0.100}, {100, 0.200},
			{200, 0.035}, {200, 0.050}, {200, 0.100},
		}
	}
	return [][2]float64{{60, 0.10}, {60, 0.16}}
}

// DynamicsTreeSize returns the tree size used by the α/k sweeps
// (n = 100 in the paper's Figures 5, 8–10).
func (p Params) DynamicsTreeSize() int {
	if p.DynTreeSize > 0 {
		return p.DynTreeSize
	}
	if p.Scale == ScalePaper {
		return 100
	}
	return 40
}

// DynamicsERConfig returns the ER configuration used by Figures 8–9
// (n=100, p=0.1 in the paper).
func (p Params) DynamicsERConfig() (int, float64) {
	if p.Scale == ScalePaper {
		return 100, 0.1
	}
	return 50, 0.14
}
