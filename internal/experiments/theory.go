package experiments

import (
	"repro/internal/bounds"
	"repro/internal/classic"
	"repro/internal/dynamics"
	"repro/internal/enum"
	"repro/internal/game"
	"repro/internal/stats"
	"repro/internal/sweepd"
	"repro/internal/table"
	"repro/internal/view"
)

// fullView is the fraction of a cell's equilibrium players that see the
// whole network at the cell's radius k.
func fullView(r dynamics.CellResult) float64 {
	s := r.Result.Final
	if s.N() == 0 {
		return 1
	}
	full := 0
	for u := 0; u < s.N(); u++ {
		if view.Extract(s.Graph(), u, r.Cell.K).SeesAll(s.N()) {
			full++
		}
	}
	return float64(full) / float64(s.N())
}

// fullViewCheck sweeps sp and tabulates, per (α, k), a claim's prediction
// beside the mean full-view fraction measured on the equilibria. predict
// returns the prediction column and whether the cell upholds the claim;
// the claim holds if every cell does.
func fullViewCheck(p Params, sp sweepd.Spec, claim, title, column string,
	predict func(a float64, k int, mean float64) (any, bool)) (Report, error) {
	t := table.New(title, "alpha", "k", column, "measured full-view fraction")
	holds := true
	err := p.cellRows(t, sp, func(a float64, k int, rs []dynamics.CellResult) []any {
		mean := stats.Mean(values(rs, fullView))
		shown, ok := predict(a, k, mean)
		holds = holds && ok
		return []any{a, k, shown, mean}
	})
	return Report{Tables: []*table.Table{t}, Verdicts: []Verdict{{claim, holds}}}, err
}

// corollary314 empirically probes Corollary 3.14: when the view radius is
// large enough, every player of every reached equilibrium sees the entire
// network (so LKE ≡ NE). The hard assertion uses the constant-free
// sufficient criterion k >= n (a radius-n ball always covers a connected
// graph); the classifier's asymptotic prediction (whose hidden constant c
// the paper leaves unspecified, so it can misfire at experiment-scale n)
// is reported as an informational column.
func corollary314(p Params) (Report, error) {
	n := p.DynamicsTreeSize()
	return fullViewCheck(p, treeSpec(p), "Corollary 3.14",
		"Corollary 3.14 check — full views in equilibrium (MAXNCG)", "classifier predicts NE≡LKE",
		func(a float64, k int, mean float64) (any, bool) {
			return bounds.FullKnowledgeMax(n, k, a), k < n || mean >= 1
		})
}

// theorem44 checks Theorem 4.4 for SUMNCG: when k > 1 + 2√α, every
// equilibrium player sees the whole network. SUMNCG dynamics use the exact
// responder on small instances (n = 14).
func theorem44(p Params) (Report, error) {
	return fullViewCheck(p, sweepd.Spec{Variant: "sum", N: 14, BaseSeed: p.Seed + 44}, "Theorem 4.4",
		"Theorem 4.4 check — full views in SUMNCG equilibria (k > 1+2√α)", "theorem applies",
		func(a float64, k int, mean float64) (any, bool) {
			applies := bounds.FullKnowledgeSum(k, a)
			return applies, !applies || mean >= 1
		})
}

// classicalThresholds checks the closed-form full-knowledge stability
// thresholds of the star (MAX: α >= 1/(n−2); SUM: α >= 1) and the
// lower-owner clique (MAX: α <= 1/(n−2); SUM: α <= 1) against the exact
// classic.IsNE audit, at α on both sides of each threshold.
func classicalThresholds(Params) (Report, error) {
	t := table.New("Classical NE thresholds — exact audit vs closed form",
		"profile", "n", "alpha", "MAX IsNE", "MAX formula", "SUM IsNE", "SUM formula")
	holds := true
	for _, n := range []int{4, 6, 9} {
		star, clique := classic.StarState(n), classic.CliqueState(n)
		inv := 1 / float64(n-2) // the MAX thresholds; SUM's are 1
		for _, a := range []float64{0.9 * inv, 1.1 * inv, 0.9, 1.1} {
			for _, row := range []struct {
				name     string
				s        *game.State
				max, sum bool
			}{
				{"star", star, classic.StarIsNEMax(n, a), classic.StarIsNESum(n, a)},
				{"clique", clique, classic.CliqueIsNEMax(n, a), classic.CliqueIsNESum(a)},
			} {
				maxNE, sumNE := classic.IsNE(row.s, game.Max, a), classic.IsNE(row.s, game.Sum, a)
				holds = holds && maxNE == row.max && sumNE == row.sum
				t.AddRowf(row.name, n, a, maxNE, row.max, sumNE, row.sum)
			}
		}
	}
	return Report{Tables: []*table.Table{t}, Verdicts: []Verdict{{"Classical NE thresholds", holds}}}, nil
}

// neInsideLKE checks §1's "the set of LKEs is broader than the set of NEs,
// so the PoA can only be worse" by exhaustive enumeration at n = 4: every
// NE is an LKE, and PoA over LKEs >= PoA over NEs.
func neInsideLKE(Params) (Report, error) {
	t := table.New("NE ⊆ LKE — exhaustive enumeration at n = 4",
		"variant", "alpha", "k", "#NE", "#LKE", "PoA (NE)", "PoA (LKE)")
	holds := true
	for _, v := range []game.Variant{game.Max, game.Sum} {
		for _, a := range []float64{0.5, 3} {
			for _, k := range []int{1, 2} {
				r, err := enum.Enumerate(4, v, a, k)
				if err != nil {
					return Report{}, err
				}
				for _, ne := range r.NE {
					holds = holds && enum.ContainsProfile(r.LKE, ne)
				}
				holds = holds && r.PoALKE() >= r.PoANE()-1e-9
				t.AddRowf(v, a, k, len(r.NE), len(r.LKE), r.PoANE(), r.PoALKE())
			}
		}
	}
	return Report{Tables: []*table.Table{t}, Verdicts: []Verdict{{"NE ⊆ LKE", holds}}}, nil
}
