// Command ncg-experiments regenerates the paper's tables and figures
// (Table I–II, Figures 5–10, the §5.4 cycle census, and the lower-bound
// audits) as ASCII tables or CSV, plus a dialect-comparison table that
// runs the same grid under every registered move rule (best-response,
// swap, large-neighborhood) on two graph families.
//
// Usage:
//
//	ncg-experiments -run all|tableI|tableII|fig1..fig10|census|dialects|audit|theory
//	               [-scale ci|paper] [-seed 1] [-csv] [-checkpoint DIR]
//
// -scale paper reproduces the full §5.1 grids (15 α × 12 k × 20 seeds) —
// expect a long run; -scale ci runs the representative sub-grid used by
// the test suite and benchmarks. Every dynamics sweep is a job of an
// in-process sweep daemon (internal/sweepd) whose store is -checkpoint DIR
// (one process at a time), or a temporary directory removed on exit:
// drivers reading the same grid share one job, a re-run over DIR resumes
// after an interruption and prints identical output, and `ncg-server
// -data DIR` serves the jobs afterwards. A store failure ends the run with
// its error, the checkpoints written so far kept. Unknown -run or -scale
// values exit non-zero with the list of valid ids, as do -seed < 1 (base
// seed 0 means "default" in a sweep spec) and a grid the daemon refuses.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/table"
)

func main() {
	var (
		run        = flag.String("run", "all", "experiment id (all, tableI, tableII, fig1..fig10, census, dialects, audit, theory)")
		scale      = flag.String("scale", "ci", "grid scale: ci | paper")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		csv        = flag.Bool("csv", false, "emit CSV instead of ASCII tables")
		seeds      = flag.Int("seeds", 0, "override: random starts per cell (0 = scale default)")
		dynN       = flag.Int("dyn-n", 0, "override: tree size for the dynamics sweeps (0 = scale default)")
		alphas     = flag.String("alphas", "", "override: comma-separated α grid")
		ks         = flag.String("ks", "", "override: comma-separated k grid")
		checkpoint = flag.String("checkpoint", "", "sweep job store: resumable checkpoints and result cache (empty = a temporary directory)")
	)
	flag.Parse()

	if *seed < 1 {
		log.Fatalf("bad -seed %d: need seed ≥ 1", *seed)
	}
	p := experiments.Params{Scale: experiments.ScaleCI, Seed: *seed}
	switch *scale {
	case "ci":
	case "paper":
		p.Scale = experiments.ScalePaper
	default:
		log.Fatalf("unknown scale %q; valid: ci paper", *scale)
	}
	p.SeedsOverride = *seeds
	p.DynTreeSize = *dynN
	if *alphas != "" {
		for _, part := range strings.Split(*alphas, ",") {
			x, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				log.Fatalf("bad -alphas: %v", err)
			}
			p.AlphaGrid = append(p.AlphaGrid, x)
		}
	}
	if *ks != "" {
		for _, part := range strings.Split(*ks, ",") {
			x, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				log.Fatalf("bad -ks: %v", err)
			}
			p.KGrid = append(p.KGrid, x)
		}
	}

	emit := func(t *table.Table) {
		if *csv {
			fmt.Printf("# %s\n", t.Title)
			t.RenderCSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
		fmt.Println()
	}
	// one emits the table of a driver that can fail, or passes its error on.
	one := func(t *table.Table, err error) error {
		if err == nil {
			emit(t)
		}
		return err
	}

	// One dispatch table drives validation, the error text, and
	// execution, so a new experiment cannot be wired up but unlisted (or
	// listed but unwired).
	drivers := []struct {
		id  string
		run func() error
	}{
		{"tableI", func() error { return one(experiments.TableI(p), nil) }},
		{"tableII", func() error { return one(experiments.TableII(p), nil) }},
		{"fig1", func() error { return one(experiments.Figure1(p)) }},
		{"fig2", func() error { return one(experiments.Figure2(p)) }},
		{"fig3", func() error { return one(experiments.Figure3(100000), nil) }},
		{"fig4", func() error { return one(experiments.Figure4(100000), nil) }},
		{"fig5", func() error { return one(experiments.Figure5(p)) }},
		{"fig6", func() error { return one(experiments.Figure6(p)) }},
		{"fig7", func() error { return one(experiments.Figure7(p)) }},
		{"fig8", func() error { return one(experiments.Figure8(p)) }},
		{"fig9", func() error { return one(experiments.Figure9(p)) }},
		{"fig10", func() error {
			left, right, err := experiments.Figure10(p)
			if err != nil {
				return err
			}
			emit(left)
			emit(right)
			return nil
		}},
		{"census", func() error { return one(experiments.CycleCensus(p)) }},
		{"dialects", func() error { return one(experiments.DialectComparison(p)) }},
		{"audit", func() error {
			emit(experiments.LowerBoundAudit(p))
			emit(experiments.SumLowerBoundAudit(p))
			return nil
		}},
		{"theory", func() error {
			t1, ok1, err := experiments.Corollary314Check(p)
			if err != nil {
				return err
			}
			emit(t1)
			t2, ok2, err := experiments.Theorem44Check(p)
			if err != nil {
				return err
			}
			emit(t2)
			fmt.Printf("Corollary 3.14 holds: %v; Theorem 4.4 holds: %v\n", ok1, ok2)
			return nil
		}},
	}

	valid := []string{"all"}
	for _, d := range drivers {
		valid = append(valid, d.id)
	}
	if !slices.Contains(valid, *run) {
		log.Fatalf("unknown experiment %q; valid: %s", *run, strings.Join(valid, " "))
	}
	// Opened last, so that a refused flag leaves no temporary store
	// behind, and closed before any exit: log.Fatal skips deferred calls.
	runner, err := experiments.Open(*checkpoint)
	if err != nil {
		log.Fatal(err)
	}
	p.Runner = runner
	for _, d := range drivers {
		if *run == "all" || *run == d.id {
			if err := d.run(); err != nil {
				runner.Close()
				log.Fatal(err)
			}
		}
	}
	runner.Close()
}
