// Benchmark harness: one sub-benchmark per entry of experiments.All, so
// `go test -bench=.` regenerates every table, figure and check of §5 at CI
// scale on the code path cmd/ncg-experiments runs at -scale paper.
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

// BenchmarkExperiments runs each entry on a runner over a new store (an
// iteration that reused the last one's store would time a resubmit of
// finished jobs, not the sweeps). An entry fails on an error, an empty
// table or a false verdict.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All {
		b.Run(e.ID, func(b *testing.B) {
			for b.Loop() {
				r, err := experiments.Open(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				p := benchParams()
				p.Runner = r
				rep, err := e.Run(p)
				r.Close()
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Tables) == 0 {
					b.Fatal("empty report")
				}
				for _, t := range rep.Tables {
					if len(t.Rows) == 0 {
						b.Fatalf("empty table %q", t.Title)
					}
				}
				for _, v := range rep.Verdicts {
					if !v.Pass {
						b.Fatalf("%s violated", v.Name)
					}
				}
			}
		})
	}
}
