package experiments

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/dynamics"
	"repro/internal/stats"
	"repro/internal/sweepd"
	"repro/internal/table"
)

// aggKey groups sweep cells by parameter pair.
type aggKey struct {
	Alpha float64
	K     int
}

// aggregate groups per-cell metric values by (α, k).
func aggregate(results []dynamics.CellResult, metric func(dynamics.CellResult) float64) map[aggKey][]float64 {
	out := make(map[aggKey][]float64)
	for _, r := range results {
		k := aggKey{Alpha: r.Cell.Alpha, K: r.Cell.K}
		out[k] = append(out[k], metric(r))
	}
	return out
}

// sweepTrees runs the standard MAXNCG tree sweep (§5.1) at the α×k grid
// of p: one job, however many drivers read it.
func sweepTrees(p Params) ([]dynamics.CellResult, error) {
	return p.sweep(sweepd.Spec{N: p.DynamicsTreeSize(), BaseSeed: p.Seed})
}

// Figure5 reproduces Figure 5: minimum and average number of vertices in
// the players' views on stable networks, as a function of α for each k
// (random trees, n = DynamicsTreeSize()).
func Figure5(p Params) (*table.Table, error) {
	results, err := sweepTrees(p)
	if err != nil {
		return nil, err
	}
	minAgg := aggregate(results, func(r dynamics.CellResult) float64 {
		return float64(r.Result.FinalStats.MinViewSize)
	})
	avgAgg := aggregate(results, func(r dynamics.CellResult) float64 {
		return r.Result.FinalStats.AvgViewSize
	})
	t := table.New("Figure 5 — view sizes at equilibrium (random trees)",
		"alpha", "k", "min view size", "avg view size")
	for _, a := range p.Alphas() {
		for _, k := range p.Ks() {
			key := aggKey{Alpha: a, K: k}
			t.AddRowf(a, k, stats.Summarize(minAgg[key]), stats.Summarize(avgAgg[key]))
		}
	}
	return t, nil
}

// Figure6 reproduces Figure 6: quality of the stable networks (social
// cost / social optimum) as a function of n, for α = 1 (left panel) and
// α = 10 (right panel), on random trees.
func Figure6(p Params) (*table.Table, error) {
	sizes := p.TreeSizes()
	t := table.New("Figure 6 — equilibrium quality vs n (random trees; α ∈ {1,10})",
		"alpha", "n", "k", "quality")
	for _, alpha := range []float64{1, 10} {
		for _, n := range sizes {
			results, err := p.sweep(sweepd.Spec{N: n, Alphas: []float64{alpha}, BaseSeed: p.Seed + int64(n)})
			if err != nil {
				return nil, err
			}
			agg := aggregate(results, func(r dynamics.CellResult) float64 {
				return r.Result.FinalStats.Quality
			})
			for _, k := range p.Ks() {
				t.AddRowf(alpha, n, k, stats.Summarize(agg[aggKey{Alpha: alpha, K: k}]))
			}
		}
	}
	return t, nil
}

// Figure7 reproduces Figure 7: quality of the stable networks as a
// function of k at α = 2, on random trees (per n) and on Erdős–Rényi
// graphs, against the theoretical trend f(k) = k/2^{log² k} (bold red
// line in the paper).
func Figure7(p Params) (*table.Table, error) {
	const alpha = 2
	t := table.New("Figure 7 — equilibrium quality vs k (α = 2)",
		"class", "n", "k", "quality", "f(k) benchmark")
	ks := p.Ks()
	for _, n := range p.TreeSizes() {
		results, err := p.sweep(sweepd.Spec{N: n, Alphas: []float64{alpha}, BaseSeed: p.Seed + int64(7*n)})
		if err != nil {
			return nil, err
		}
		agg := aggregate(results, func(r dynamics.CellResult) float64 {
			return r.Result.FinalStats.Quality
		})
		for _, k := range ks {
			t.AddRowf("tree", n, k,
				stats.Summarize(agg[aggKey{Alpha: alpha, K: k}]),
				bounds.Figure7Benchmark(k))
		}
	}
	// The paper's right panel: ER(100, 0.2) — scaled at CI size.
	nER, pER := p.DynamicsERConfig()
	if p.Scale == ScalePaper {
		nER, pER = 100, 0.2
	}
	results, err := p.sweep(sweepd.Spec{Graph: "gnp", N: nER, P: pER, Alphas: []float64{alpha}, BaseSeed: p.Seed + 777})
	if err != nil {
		return nil, err
	}
	agg := aggregate(results, func(r dynamics.CellResult) float64 {
		return r.Result.FinalStats.Quality
	})
	for _, k := range ks {
		t.AddRowf(fmt.Sprintf("ER(p=%.2f)", pER), nER, k,
			stats.Summarize(agg[aggKey{Alpha: alpha, K: k}]),
			bounds.Figure7Benchmark(k))
	}
	return t, nil
}

// Figure8 reproduces Figure 8: maximum degree and maximum number of
// bought edges of stable networks as a function of α, for each k, on
// Erdős–Rényi graphs.
func Figure8(p Params) (*table.Table, error) {
	n, prob := p.DynamicsERConfig()
	results, err := p.sweep(sweepd.Spec{Graph: "gnp", N: n, P: prob, BaseSeed: p.Seed + 8})
	if err != nil {
		return nil, err
	}
	degAgg := aggregate(results, func(r dynamics.CellResult) float64 {
		return float64(r.Result.FinalStats.MaxDegree)
	})
	boughtAgg := aggregate(results, func(r dynamics.CellResult) float64 {
		return float64(r.Result.FinalStats.MaxBought)
	})
	t := table.New(fmt.Sprintf("Figure 8 — max degree / max bought edges (ER n=%d p=%.2f)", n, prob),
		"alpha", "k", "max degree", "max bought edges")
	for _, a := range p.Alphas() {
		for _, k := range p.Ks() {
			key := aggKey{Alpha: a, K: k}
			t.AddRowf(a, k, stats.Summarize(degAgg[key]), stats.Summarize(boughtAgg[key]))
		}
	}
	return t, nil
}

// Figure9 reproduces Figure 9: the unfairness ratio (highest / lowest
// player cost) of stable networks as a function of α for each k, on
// Erdős–Rényi graphs. The paper's headline: smaller k yields fairer
// equilibria.
func Figure9(p Params) (*table.Table, error) {
	n, prob := p.DynamicsERConfig()
	results, err := p.sweep(sweepd.Spec{Graph: "gnp", N: n, P: prob, BaseSeed: p.Seed + 9})
	if err != nil {
		return nil, err
	}
	agg := aggregate(results, func(r dynamics.CellResult) float64 {
		return r.Result.FinalStats.Unfairness
	})
	t := table.New(fmt.Sprintf("Figure 9 — unfairness ratio (ER n=%d p=%.2f)", n, prob),
		"alpha", "k", "unfairness")
	for _, a := range p.Alphas() {
		for _, k := range p.Ks() {
			t.AddRowf(a, k, stats.Summarize(agg[aggKey{Alpha: a, K: k}]))
		}
	}
	return t, nil
}

// Figure10 reproduces Figure 10: rounds to convergence as a function of α
// (left panel, fixed n) and as a function of n at α = 2 (right panel), on
// random trees.
func Figure10(p Params) (*table.Table, *table.Table, error) {
	left := table.New(fmt.Sprintf("Figure 10 (left) — rounds vs α (trees n=%d)", p.DynamicsTreeSize()),
		"alpha", "k", "rounds", "converged fraction")
	results, err := sweepTrees(p)
	if err != nil {
		return nil, nil, err
	}
	roundsAgg := aggregate(results, func(r dynamics.CellResult) float64 {
		return float64(r.Result.Rounds)
	})
	convAgg := aggregate(results, func(r dynamics.CellResult) float64 {
		if r.Result.Status == dynamics.Converged {
			return 1
		}
		return 0
	})
	for _, a := range p.Alphas() {
		for _, k := range p.Ks() {
			key := aggKey{Alpha: a, K: k}
			left.AddRowf(a, k, stats.Summarize(roundsAgg[key]), stats.Mean(convAgg[key]))
		}
	}

	right := table.New("Figure 10 (right) — rounds vs n (trees, α = 2)",
		"n", "k", "rounds")
	for _, n := range p.TreeSizes() {
		res, err := p.sweep(sweepd.Spec{N: n, Alphas: []float64{2}, BaseSeed: p.Seed + int64(10*n)})
		if err != nil {
			return nil, nil, err
		}
		agg := aggregate(res, func(r dynamics.CellResult) float64 {
			return float64(r.Result.Rounds)
		})
		for _, k := range p.Ks() {
			right.AddRowf(n, k, stats.Summarize(agg[aggKey{Alpha: 2, K: k}]))
		}
	}
	return left, right, nil
}

// CycleCensus reproduces the §5.4 convergence claim ("we simulated about
// 36 000 best-response dynamics, and only encountered best-response cycles
// in 5 of them"): it counts run outcomes over the sweep grid.
func CycleCensus(p Params) (*table.Table, error) {
	results, err := sweepTrees(p)
	if err != nil {
		return nil, err
	}
	var converged, cycled, limited int
	for _, r := range results {
		switch r.Result.Status {
		case dynamics.Converged:
			converged++
		case dynamics.Cycled:
			cycled++
		default:
			limited++
		}
	}
	t := table.New("Cycle census (§5.4) — dynamics outcomes over the sweep grid",
		"outcome", "count", "fraction")
	total := len(results)
	frac := func(c int) float64 {
		if total == 0 {
			return 0
		}
		return float64(c) / float64(total)
	}
	t.AddRowf("converged", converged, frac(converged))
	t.AddRowf("cycled", cycled, frac(cycled))
	t.AddRowf("round-limit", limited, frac(limited))
	return t, nil
}
