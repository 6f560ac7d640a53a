package experiments

import (
	"repro/internal/bounds"
	"repro/internal/dynamics"
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
//
// Known violation: at -scale ci the check fails at one cell, α = 0.1 and
// k = 2, where the criterion holds (2 > 1 + 2√0.1 ≈ 1.63) but the measured
// full-view fraction is 0. bestresponse.SumDelta sums only over
// d_H(u,v) < k, at k = 2 u's neighbours, so no move ever improves and
// every starting tree is stable for every α; the criterion appears to
// credit the frontier vertex's own saving. Which side is wrong waits on the
// text of Prop. 2.2 and Theorem 4.4 (ROADMAP direction 13(b)).
func theorem44(p Params) (Report, error) {
	return fullViewCheck(p, sweepd.Spec{Variant: "sum", N: 14, BaseSeed: p.Seed + 44}, "Theorem 4.4",
		"Theorem 4.4 check — full views in SUMNCG equilibria (k > 1+2√α)", "theorem applies",
		func(a float64, k int, mean float64) (any, bool) {
			applies := bounds.FullKnowledgeSum(k, a)
			return applies, !applies || mean >= 1
		})
}
