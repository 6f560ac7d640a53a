package experiments

import (
	"repro/internal/bounds"
	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/stats"
	"repro/internal/sweepd"
	"repro/internal/table"
	"repro/internal/view"
)

// fullViewFraction returns the fraction of players that see the whole
// network at radius k.
func fullViewFraction(s *game.State, k int) float64 {
	if s.N() == 0 {
		return 1
	}
	full := 0
	g := s.Graph()
	for u := 0; u < s.N(); u++ {
		if view.Extract(g, u, k).SeesAll(s.N()) {
			full++
		}
	}
	return float64(full) / float64(s.N())
}

// Corollary314Check empirically probes Corollary 3.14: when the view
// radius is large enough, every player of every reached equilibrium sees
// the entire network (so LKE ≡ NE). The hard assertion uses the
// constant-free sufficient criterion k >= n (a radius-n ball always
// covers a connected graph); the classifier's asymptotic prediction
// (whose hidden constant c the paper leaves unspecified, so it can
// misfire at experiment-scale n) is reported as an informational column.
func Corollary314Check(p Params) (*table.Table, bool, error) {
	n := p.DynamicsTreeSize()
	results, err := sweepTrees(p)
	if err != nil {
		return nil, false, err
	}
	agg := aggregate(results, func(r dynamics.CellResult) float64 {
		return fullViewFraction(r.Result.Final, r.Cell.K)
	})
	t := table.New("Corollary 3.14 check — full views in equilibrium (MAXNCG)",
		"alpha", "k", "classifier predicts NE≡LKE", "measured full-view fraction")
	holds := true
	for _, a := range p.Alphas() {
		for _, k := range p.Ks() {
			mean := stats.Mean(agg[aggKey{Alpha: a, K: k}])
			if k >= n && mean < 1 {
				holds = false
			}
			t.AddRowf(a, k, bounds.FullKnowledgeMax(n, k, a), mean)
		}
	}
	return t, holds, nil
}

// Theorem44Check empirically validates Theorem 4.4 for SUMNCG: when
// k > 1 + 2√α, every equilibrium player sees the whole network. SUMNCG
// dynamics use the exact responder on small instances.
func Theorem44Check(p Params) (*table.Table, bool, error) {
	n := 14 // small enough for the exact SUMNCG responder
	results, err := p.sweep(sweepd.Spec{Variant: "sum", N: n, BaseSeed: p.Seed + 44})
	if err != nil {
		return nil, false, err
	}
	agg := aggregate(results, func(r dynamics.CellResult) float64 {
		return fullViewFraction(r.Result.Final, r.Cell.K)
	})
	t := table.New("Theorem 4.4 check — full views in SUMNCG equilibria (k > 1+2√α)",
		"alpha", "k", "theorem applies", "measured full-view fraction")
	holds := true
	for _, a := range p.Alphas() {
		for _, k := range p.Ks() {
			mean := stats.Mean(agg[aggKey{Alpha: a, K: k}])
			applies := bounds.FullKnowledgeSum(k, a)
			if applies && mean < 1 {
				holds = false
			}
			t.AddRowf(a, k, applies, mean)
		}
	}
	return t, holds, nil
}
