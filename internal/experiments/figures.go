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

func quality(r dynamics.CellResult) float64 { return r.Result.FinalStats.Quality }
func rounds(r dynamics.CellResult) float64  { return float64(r.Result.Rounds) }

// values reads metric off each of rs.
func values(rs []dynamics.CellResult, metric func(dynamics.CellResult) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = metric(r)
	}
	return xs
}

// summarize is the mean ± 95% CI half-width of metric over rs.
func summarize(rs []dynamics.CellResult, metric func(dynamics.CellResult) float64) stats.Summary {
	return stats.Summarize(values(rs, metric))
}

// cellRows sweeps sp (see sweep) and adds to t one row per (α, k) of the
// swept grid, α-major, built by row from that pair's results.
func (p Params) cellRows(t *table.Table, sp sweepd.Spec, row func(a float64, k int, rs []dynamics.CellResult) []any) error {
	results, err := p.sweep(sp)
	if err != nil {
		return err
	}
	byCell := make(map[aggKey][]dynamics.CellResult)
	for _, r := range results {
		key := aggKey{Alpha: r.Cell.Alpha, K: r.Cell.K}
		byCell[key] = append(byCell[key], r)
	}
	alphas := sp.Alphas
	if alphas == nil {
		alphas = p.Alphas()
	}
	for _, a := range alphas {
		for _, k := range p.Ks() {
			t.AddRowf(row(a, k, byCell[aggKey{Alpha: a, K: k}])...)
		}
	}
	return nil
}

// treeSpec is the standard MAXNCG tree sweep (§5.1) at the α×k grid of
// p: one job, however many drivers read it.
func treeSpec(p Params) sweepd.Spec { return sweepd.Spec{N: p.DynamicsTreeSize(), BaseSeed: p.Seed} }

// figure5 reproduces Figure 5: minimum and average number of vertices in
// the players' views on stable networks, as a function of α for each k
// (random trees, n = DynamicsTreeSize()).
func figure5(p Params) (Report, error) {
	t := table.New("Figure 5 — view sizes at equilibrium (random trees)",
		"alpha", "k", "min view size", "avg view size")
	minView := func(r dynamics.CellResult) float64 { return float64(r.Result.FinalStats.MinViewSize) }
	avgView := func(r dynamics.CellResult) float64 { return r.Result.FinalStats.AvgViewSize }
	err := p.cellRows(t, treeSpec(p), func(a float64, k int, rs []dynamics.CellResult) []any {
		return []any{a, k, summarize(rs, minView), summarize(rs, avgView)}
	})
	return tables(t), err
}

// figure6 reproduces Figure 6: quality of the stable networks (social
// cost / social optimum) as a function of n, for α = 1 (left panel) and
// α = 10 (right panel), on random trees.
func figure6(p Params) (Report, error) {
	t := table.New("Figure 6 — equilibrium quality vs n (random trees; α ∈ {1,10})",
		"alpha", "n", "k", "quality")
	for _, alpha := range []float64{1, 10} {
		for _, n := range p.TreeSizes() {
			sp := sweepd.Spec{N: n, Alphas: []float64{alpha}, BaseSeed: p.Seed + int64(n)}
			if err := p.cellRows(t, sp, func(a float64, k int, rs []dynamics.CellResult) []any {
				return []any{a, n, k, summarize(rs, quality)}
			}); err != nil {
				return Report{}, err
			}
		}
	}
	return tables(t), nil
}

// figure7 reproduces Figure 7: quality of the stable networks as a
// function of k at α = 2, on random trees (per n) and on Erdős–Rényi
// graphs, against the theoretical trend f(k) = k/2^{log² k} (bold red
// line in the paper).
func figure7(p Params) (Report, error) {
	t := table.New("Figure 7 — equilibrium quality vs k (α = 2)",
		"class", "n", "k", "quality", "f(k) benchmark")
	row := func(class string, n int) func(float64, int, []dynamics.CellResult) []any {
		return func(_ float64, k int, rs []dynamics.CellResult) []any {
			return []any{class, n, k, summarize(rs, quality), bounds.Figure7Benchmark(k)}
		}
	}
	for _, n := range p.TreeSizes() {
		sp := sweepd.Spec{N: n, Alphas: []float64{2}, BaseSeed: p.Seed + int64(7*n)}
		if err := p.cellRows(t, sp, row("tree", n)); err != nil {
			return Report{}, err
		}
	}
	// The paper's right panel: ER(100, 0.2) — scaled at CI size.
	nER, pER := p.DynamicsERConfig()
	if p.Scale == ScalePaper {
		nER, pER = 100, 0.2
	}
	err := p.cellRows(t, sweepd.Spec{Graph: "gnp", N: nER, P: pER, Alphas: []float64{2}, BaseSeed: p.Seed + 777},
		row(fmt.Sprintf("ER(p=%.2f)", pER), nER))
	return tables(t), err
}

// figure8 reproduces Figure 8: maximum degree and maximum number of
// bought edges of stable networks as a function of α, for each k, on
// Erdős–Rényi graphs.
func figure8(p Params) (Report, error) {
	n, prob := p.DynamicsERConfig()
	t := table.New(fmt.Sprintf("Figure 8 — max degree / max bought edges (ER n=%d p=%.2f)", n, prob),
		"alpha", "k", "max degree", "max bought edges")
	degree := func(r dynamics.CellResult) float64 { return float64(r.Result.FinalStats.MaxDegree) }
	bought := func(r dynamics.CellResult) float64 { return float64(r.Result.FinalStats.MaxBought) }
	sp := sweepd.Spec{Graph: "gnp", N: n, P: prob, BaseSeed: p.Seed + 8}
	err := p.cellRows(t, sp, func(a float64, k int, rs []dynamics.CellResult) []any {
		return []any{a, k, summarize(rs, degree), summarize(rs, bought)}
	})
	return tables(t), err
}

// figure9 reproduces Figure 9: the unfairness ratio (highest / lowest
// player cost) of stable networks as a function of α for each k, on
// Erdős–Rényi graphs. The paper's headline: smaller k yields fairer
// equilibria.
func figure9(p Params) (Report, error) {
	n, prob := p.DynamicsERConfig()
	t := table.New(fmt.Sprintf("Figure 9 — unfairness ratio (ER n=%d p=%.2f)", n, prob),
		"alpha", "k", "unfairness")
	unfairness := func(r dynamics.CellResult) float64 { return r.Result.FinalStats.Unfairness }
	sp := sweepd.Spec{Graph: "gnp", N: n, P: prob, BaseSeed: p.Seed + 9}
	err := p.cellRows(t, sp, func(a float64, k int, rs []dynamics.CellResult) []any {
		return []any{a, k, summarize(rs, unfairness)}
	})
	return tables(t), err
}

// figure10 reproduces Figure 10: rounds to convergence as a function of α
// (left panel, fixed n) and as a function of n at α = 2 (right panel), on
// random trees.
func figure10(p Params) (Report, error) {
	left := table.New(fmt.Sprintf("Figure 10 (left) — rounds vs α (trees n=%d)", p.DynamicsTreeSize()),
		"alpha", "k", "rounds", "converged fraction")
	converged := func(r dynamics.CellResult) float64 {
		if r.Result.Status == dynamics.Converged {
			return 1
		}
		return 0
	}
	if err := p.cellRows(left, treeSpec(p), func(a float64, k int, rs []dynamics.CellResult) []any {
		return []any{a, k, summarize(rs, rounds), stats.Mean(values(rs, converged))}
	}); err != nil {
		return Report{}, err
	}
	right := table.New("Figure 10 (right) — rounds vs n (trees, α = 2)",
		"n", "k", "rounds")
	for _, n := range p.TreeSizes() {
		sp := sweepd.Spec{N: n, Alphas: []float64{2}, BaseSeed: p.Seed + int64(10*n)}
		if err := p.cellRows(right, sp, func(_ float64, k int, rs []dynamics.CellResult) []any {
			return []any{n, k, summarize(rs, rounds)}
		}); err != nil {
			return Report{}, err
		}
	}
	return tables(left, right), nil
}

// cycleCensus reproduces the §5.4 convergence claim ("we simulated about
// 36 000 best-response dynamics, and only encountered best-response cycles
// in 5 of them"): it counts run outcomes over the sweep grid.
func cycleCensus(p Params) (Report, error) {
	results, err := p.sweep(treeSpec(p))
	if err != nil {
		return Report{}, err
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
	return tables(t), nil
}
