package experiments

import (
	"fmt"

	"repro/internal/dynamics"
	"repro/internal/stats"
	"repro/internal/sweepd"
	"repro/internal/table"
)

// DialectComparison runs one α×k grid under every registered game
// dialect on two graph families, side by side — each row is a daemon job
// with the printed spec fields (the best-response tree row is the §5.1
// tree sweep's job). Swap dynamics keep the network's edge count
// invariant and large-neighborhood descent explores compound deviations,
// so the three move rules reach visibly different equilibria from
// identical starts.
func DialectComparison(p Params) (*table.Table, error) {
	n := p.DynamicsTreeSize()
	configs := []struct {
		dialect string
		graph   string
		prob    float64
	}{
		{"best-response", "tree", 0},
		{"swap", "tree", 0},
		{"large-neighborhood", "tree", 0},
		{"best-response", "grid-delete", 0.25},
		{"swap", "grid-delete", 0.25},
		{"large-neighborhood", "grid-delete", 0.25},
	}
	t := table.New(fmt.Sprintf("Dialect comparison — move rules across graph families (n = %d)", n),
		"dialect", "graph", "converged", "rounds", "moves", "diameter")
	for _, c := range configs {
		results, err := p.sweep(sweepd.Spec{Dialect: c.dialect, Graph: c.graph, N: n, P: c.prob, BaseSeed: p.Seed})
		if err != nil {
			return nil, err
		}
		var rounds, moves, diameter []float64
		converged := 0
		for _, r := range results {
			if r.Result.Status == dynamics.Converged {
				converged++
			}
			rounds = append(rounds, float64(r.Result.Rounds))
			moves = append(moves, float64(r.Result.TotalMoves))
			diameter = append(diameter, float64(r.Result.FinalStats.Diameter))
		}
		t.AddRowf(c.dialect, c.graph,
			fmt.Sprintf("%.0f%%", 100*float64(converged)/float64(len(results))),
			stats.Summarize(rounds), stats.Summarize(moves), stats.Summarize(diameter))
	}
	return t, nil
}
