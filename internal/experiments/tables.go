package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/game"
	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/table"
)

// tableI reproduces Table I: statistics of the random trees used as
// starting networks — diameter, maximum degree, and maximum number of
// bought edges (under fair-coin ownership), averaged over Seeds() trees
// per size with 95% confidence intervals.
func tableI(p Params) (Report, error) {
	t := table.New("Table I — random tree statistics",
		"n", "Diameter", "Max. degree", "Max. Bought Edges")
	rng := rand.New(rand.NewSource(p.Seed))
	for _, n := range p.TreeSizes() {
		var diam, deg, bought []float64
		for s := 0; s < p.Seeds(); s++ {
			g := gen.RandomTree(n, rng)
			st := game.FromGraphRandomOwners(g, rng)
			diam = append(diam, float64(g.Diameter()))
			deg = append(deg, float64(g.MaxDegree()))
			bought = append(bought, float64(st.MaxBought()))
		}
		t.AddRowf(n, stats.Summarize(diam), stats.Summarize(deg), stats.Summarize(bought))
	}
	return tables(t), nil
}

// tableII reproduces Table II: statistics of the Erdős–Rényi starting
// networks — edge count, diameter, maximum degree, and maximum bought
// edges, averaged over Seeds() connected samples per (n, p).
func tableII(p Params) (Report, error) {
	t := table.New("Table II — Erdős–Rényi random graph statistics",
		"n", "p", "Edges", "Diameter", "Max. degree", "Max. Bought Edges")
	rng := rand.New(rand.NewSource(p.Seed + 1))
	for _, cfg := range p.ERConfigs() {
		n, prob := int(cfg[0]), cfg[1]
		var edges, diam, deg, bought []float64
		for s := 0; s < p.Seeds(); s++ {
			g, err := gen.GNPConnected(n, prob, rng, 2000)
			if err != nil {
				continue
			}
			st := game.FromGraphRandomOwners(g, rng)
			edges = append(edges, float64(g.M()))
			diam = append(diam, float64(g.Diameter()))
			deg = append(deg, float64(g.MaxDegree()))
			bought = append(bought, float64(st.MaxBought()))
		}
		t.AddRowf(n, fmt.Sprintf("%.3f", prob),
			stats.Summarize(edges), stats.Summarize(diam),
			stats.Summarize(deg), stats.Summarize(bought))
	}
	return tables(t), nil
}
