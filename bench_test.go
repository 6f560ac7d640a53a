// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), so `go test -bench=.` regenerates every experimental
// artifact at CI scale. The drivers are the same code paths cmd/
// ncg-experiments runs at -scale paper.
package ncg

import (
	"testing"

	"repro/internal/experiments"
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
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Figure5(benchParams()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6 (equilibrium quality vs n at α ∈ {1,10}).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Figure6(benchParams()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7 (quality vs k at α=2, trees + ER).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Figure7(benchParams()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure8 regenerates Figure 8 (max degree / bought edges vs α).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Figure8(benchParams()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9 (unfairness ratio vs α).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Figure9(benchParams()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure10 regenerates Figure 10 (rounds to convergence).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		left, right := experiments.Figure10(benchParams())
		if len(left.Rows) == 0 || len(right.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkCycleCensus regenerates the §5.4 convergence census.
func BenchmarkCycleCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.CycleCensus(benchParams()); len(tab.Rows) != 3 {
			b.Fatal("bad census")
		}
	}
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
	for i := 0; i < b.N; i++ {
		if _, holds := experiments.Corollary314Check(benchParams()); !holds {
			b.Fatal("Corollary 3.14 violated")
		}
	}
}

// BenchmarkTheorem44 runs the SUMNCG full-knowledge threshold check.
// The exact (exhaustive) SUMNCG responder limits this to a small grid.
func BenchmarkTheorem44(b *testing.B) {
	p := benchParams()
	p.AlphaGrid = []float64{0.5, 2}
	p.KGrid = []int{2, 6}
	p.SeedsOverride = 2
	for i := 0; i < b.N; i++ {
		if _, holds := experiments.Theorem44Check(p); !holds {
			b.Fatal("Theorem 4.4 violated")
		}
	}
}
