// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), so `go test -bench=.` regenerates every experimental
// artifact at CI scale. The drivers are the same code paths cmd/
// ncg-experiments runs at -scale paper.
package ncg

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/table"
)

// benchParams keeps every benchmark on the same deterministic sub-grid.
func benchParams() experiments.Params {
	return experiments.Params{
		Scale:         experiments.ScaleCI,
		Seed:          1,
		AlphaGrid:     []float64{0.5, 1, 2, 5},
		KGrid:         []int{2, 3, 5, 1000},
		SeedsOverride: 3,
		TreeSizeGrid:  []int{20, 50},
		DynTreeSize:   40,
	}
}

// onFreshRunner hands run benchParams on a runner over a new store: an
// iteration that reused the last one's store would time a resubmit of
// finished jobs, not the sweeps.
func onFreshRunner(b *testing.B, run func(p experiments.Params) error) {
	b.Helper()
	r, err := experiments.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	p := benchParams()
	p.Runner = r
	if err := run(p); err != nil {
		b.Fatal(err)
	}
}

// sweepTable benchmarks a sweep-backed driver that renders one table.
func sweepTable(b *testing.B, driver func(experiments.Params) (*table.Table, error)) {
	for i := 0; i < b.N; i++ {
		onFreshRunner(b, func(p experiments.Params) error {
			tab, err := driver(p)
			if err == nil && len(tab.Rows) == 0 {
				b.Fatal("empty table")
			}
			return err
		})
	}
}

// BenchmarkTableI regenerates Table I (random tree statistics).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.TableI(benchParams()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableII regenerates Table II (Erdős–Rényi statistics).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.TableII(benchParams()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure1 builds and audits the Figure 1 torus (d=2, δ=(15,5), ℓ=2).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 builds and audits the Figure 2 torus (d=2, δ=(3,4), ℓ=2).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 evaluates the MAXNCG PoA region map (Figure 3).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Figure3(100000); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure4 evaluates the SUMNCG PoA region map (Figure 4).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Figure4(100000); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5 (view sizes at equilibrium vs α, k).
func BenchmarkFigure5(b *testing.B) { sweepTable(b, experiments.Figure5) }

// BenchmarkFigure6 regenerates Figure 6 (equilibrium quality vs n at α ∈ {1,10}).
func BenchmarkFigure6(b *testing.B) { sweepTable(b, experiments.Figure6) }

// BenchmarkFigure7 regenerates Figure 7 (quality vs k at α=2, trees + ER).
func BenchmarkFigure7(b *testing.B) { sweepTable(b, experiments.Figure7) }

// BenchmarkFigure8 regenerates Figure 8 (max degree / bought edges vs α).
func BenchmarkFigure8(b *testing.B) { sweepTable(b, experiments.Figure8) }

// BenchmarkFigure9 regenerates Figure 9 (unfairness ratio vs α).
func BenchmarkFigure9(b *testing.B) { sweepTable(b, experiments.Figure9) }

// BenchmarkFigure10 regenerates Figure 10 (rounds to convergence).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		onFreshRunner(b, func(p experiments.Params) error {
			left, right, err := experiments.Figure10(p)
			if err == nil && (len(left.Rows) == 0 || len(right.Rows) == 0) {
				b.Fatal("empty table")
			}
			return err
		})
	}
}

// BenchmarkCycleCensus regenerates the §5.4 convergence census.
func BenchmarkCycleCensus(b *testing.B) {
	sweepTable(b, func(p experiments.Params) (*table.Table, error) {
		tab, err := experiments.CycleCensus(p)
		if err == nil && len(tab.Rows) != 3 {
			b.Fatal("bad census")
		}
		return tab, err
	})
}

// BenchmarkLowerBoundAudit re-verifies the lower-bound constructions
// (Lemmas 3.1–3.2, Theorem 3.12) with the exact LKE audit.
func BenchmarkLowerBoundAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.LowerBoundAudit(benchParams()); len(tab.Rows) < 4 {
			b.Fatal("audit incomplete")
		}
	}
}

// BenchmarkSumLowerBoundAudit re-verifies the SUMNCG Lemma 4.1 torus.
func BenchmarkSumLowerBoundAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.SumLowerBoundAudit(benchParams()); len(tab.Rows) == 0 {
			b.Fatal("audit incomplete")
		}
	}
}

// BenchmarkCorollary314 runs the empirical LKE≡NE check (Corollary 3.14).
func BenchmarkCorollary314(b *testing.B) {
	sweepTable(b, func(p experiments.Params) (*table.Table, error) {
		tab, holds, err := experiments.Corollary314Check(p)
		if err == nil && !holds {
			b.Fatal("Corollary 3.14 violated")
		}
		return tab, err
	})
}

// BenchmarkTheorem44 runs the SUMNCG full-knowledge threshold check.
// The exact (exhaustive) SUMNCG responder limits this to a small grid.
func BenchmarkTheorem44(b *testing.B) {
	sweepTable(b, func(p experiments.Params) (*table.Table, error) {
		p.AlphaGrid = []float64{0.5, 2}
		p.KGrid = []int{2, 6}
		p.SeedsOverride = 2
		tab, holds, err := experiments.Theorem44Check(p)
		if err == nil && !holds {
			b.Fatal("Theorem 4.4 violated")
		}
		return tab, err
	})
}
