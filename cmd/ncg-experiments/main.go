// Command ncg-experiments regenerates the paper's tables, figures and
// checks — the entries of experiments.All, in its order — as ASCII tables
// or CSV.
//
// Usage:
//
//	ncg-experiments -run all|<id> [-scale ci|paper] [-seed 1] [-csv] [-checkpoint DIR]
//
// The ids are experiments.All's, in its order; ncg-experiments -h lists
// them.
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
// seed 0 means "default" in a sweep spec), a negative -seeds or -dyn-n,
// and a grid the daemon refuses.
package main

import (
	"flag"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	valid := []string{"all"}
	for _, e := range experiments.All {
		valid = append(valid, e.ID)
	}
	var (
		run        = flag.String("run", "all", "experiment id: "+strings.Join(valid, " | "))
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
	if *seeds < 0 {
		log.Fatalf("bad -seeds %d: need seeds ≥ 0 (0 = scale default)", *seeds)
	}
	if *dynN < 0 {
		log.Fatalf("bad -dyn-n %d: need n ≥ 0 (0 = scale default)", *dynN)
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
	for _, e := range experiments.All {
		if *run != "all" && *run != e.ID {
			continue
		}
		r, err := e.Run(p)
		if err != nil {
			runner.Close()
			log.Fatal(err)
		}
		r.Write(os.Stdout, *csv)
	}
	runner.Close()
}
