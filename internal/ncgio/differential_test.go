package ncgio_test

import (
	"testing"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
	"repro/internal/sweepd"
)

// TestCodecMatchesOracleOnSweptCells runs every line kind of every cell of
// a spread of small sweeps through ncgio.CheckAgainstOracle: the specs
// TestSpecGoldenHashes pins in sweepd, then one per graph family and
// dialect those leave out, so each registered generator and move rule
// contributes the states and statistics it actually produces.
func TestCodecMatchesOracleOnSweptCells(t *testing.T) {
	specs := map[string]sweepd.Spec{
		"defaults-tree-max": {N: 12, Alphas: []float64{0.5, 2}, Ks: []int{2, 1000}, Seeds: 2},
		"sum-gnp":           {Variant: "sum", Graph: "gnp", N: 30, P: 0.2, Alphas: []float64{1, 2}, Ks: []int{3}, Seeds: 3},
		"trajectories-custom-budget": {N: 8, Alphas: []float64{0.5, 1, 2}, Ks: []int{1, 2}, Seeds: 4,
			BaseSeed: 7, MaxRounds: 50, CycleCheckAfter: 10, Trajectories: true},
		"max-gnp-wide-grid": {Graph: "gnp", N: 64, P: 0.1, Alphas: []float64{0.25, 0.5, 1, 2, 4}, Ks: []int{1, 2, 3}, Seeds: 2},
		"sum-tree-long-budget": {Variant: "sum", N: 40, Alphas: []float64{3}, Ks: []int{2}, Seeds: 4,
			MaxRounds: 400, CycleCheckAfter: 100},
		"grid-delete":        {Graph: "grid-delete", N: 25, P: 0.1, Alphas: []float64{0.3, 7}, Ks: []int{2}, Seeds: 2},
		"pa-tree":            {Graph: "pa-tree", N: 20, Alphas: []float64{1e-3, 1.1}, Ks: []int{3}, Seeds: 2, Trajectories: true},
		"random-regular":     {Graph: "random-regular", N: 16, Q: 3, Alphas: []float64{0.7}, Ks: []int{2, 4}, Seeds: 2},
		"swap":               {Dialect: "swap", N: 20, Alphas: []float64{1}, Ks: []int{2, 3}, Seeds: 2},
		"swap-sum":           {Dialect: "swap", Variant: "sum", Graph: "gnp", N: 20, P: 0.3, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2},
		"large-neighborhood": {Dialect: "large-neighborhood", Variant: "sum", N: 20, Alphas: []float64{0.5, 5e6}, Ks: []int{2}, Seeds: 2, Trajectories: true},
	}
	for name, sp := range specs {
		t.Run(name, func(t *testing.T) {
			sp.Normalize()
			if err := sp.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, r := range dynamics.Sweep(sp.Cells(), sp.Config(), sp.Factory(), sp.BaseSeed) {
				ncgio.CheckAgainstOracle(t, r)
			}
		})
	}
}
