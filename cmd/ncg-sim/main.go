// Command ncg-sim runs a single best-response dynamics and prints the
// trajectory: per-round network features and the final equilibrium
// summary. It is the interactive counterpart of the paper's §5.1 loop.
//
// Usage:
//
//	ncg-sim -n 100 -alpha 2 -k 5 -graph tree -seed 1 [-variant max|sum]
//
// An out-of-range -n, -k, -alpha or -p, or an unknown -graph or -variant,
// exits 1 with one line on stderr before any work.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/analysis"
	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/gen"
	"repro/internal/ncgio"
	"repro/internal/table"
)

func main() {
	var (
		n       = flag.Int("n", 100, "number of players")
		alpha   = flag.Float64("alpha", 2, "edge price α")
		k       = flag.Int("k", 5, "view radius (use a large value for full knowledge)")
		graphF  = flag.String("graph", "tree", "starting graph: tree | gnp | path | cycle | star")
		p       = flag.Float64("p", 0.1, "edge probability for -graph gnp")
		seed    = flag.Int64("seed", 1, "RNG seed")
		variant = flag.String("variant", "max", "game variant: max | sum")
		rounds  = flag.Int("rounds", 200, "round budget")
		save    = flag.String("save", "", "write the final state as JSON to this file")
		analyze = flag.Bool("analyze", false, "print the structural equilibrium report")
	)
	flag.Parse()

	// Below the bounds sweepd.Spec.Validate sets a sweep there is no game
	// to play, and a cycle needs three vertices.
	switch {
	case *n < 2:
		log.Fatalf("bad -n %d: need n ≥ 2", *n)
	case *graphF == "cycle" && *n < 3:
		log.Fatalf("bad -n %d: -graph cycle needs n ≥ 3", *n)
	case *k < 1:
		log.Fatalf("bad -k %d: need k ≥ 1", *k)
	case !(*alpha > 0):
		log.Fatalf("bad -alpha %g: need α > 0", *alpha)
	case *graphF == "gnp" && !(*p > 0 && *p <= 1):
		log.Fatalf("bad -p %g: -graph gnp needs 0 < p ≤ 1", *p)
	}
	v := game.Max
	if *variant == "sum" {
		v = game.Sum
	} else if *variant != "max" {
		log.Fatalf("unknown -variant %q; valid: max sum", *variant)
	}

	rng := rand.New(rand.NewSource(*seed))
	var s *game.State
	switch *graphF {
	case "tree":
		s = game.FromGraphRandomOwners(gen.RandomTree(*n, rng), rng)
	case "gnp":
		g, err := gen.GNPConnected(*n, *p, rng, 1000)
		if err != nil {
			log.Fatal(err)
		}
		s = game.FromGraphRandomOwners(g, rng)
	case "path":
		s = game.FromGraphRandomOwners(gen.Path(*n), rng)
	case "cycle":
		s = game.FromGraphRandomOwners(gen.Cycle(*n), rng)
	case "star":
		s = game.FromGraphRandomOwners(gen.Star(*n), rng)
	default:
		log.Fatalf("unknown -graph %q; valid: tree gnp path cycle star", *graphF)
	}

	cfg := dynamics.DefaultConfig(v, *alpha, *k)
	cfg.MaxRounds = *rounds
	cfg.CollectPerRound = true

	fmt.Printf("%s dynamics: n=%d α=%g k=%d graph=%s seed=%d\n\n",
		v, *n, *alpha, *k, *graphF, *seed)
	res := dynamics.Run(s, cfg)

	t := table.New("Trajectory", "round", "moves", "diameter", "social cost", "quality", "max degree", "max bought")
	for _, r := range res.PerRound {
		t.AddRowf(r.Round, r.Moves, r.Diameter, r.SocialCost, r.Quality, r.MaxDegree, r.MaxBought)
	}
	t.Render(os.Stdout)

	fmt.Printf("\noutcome: %s after %d rounds, %d total moves",
		res.Status, res.Rounds, res.TotalMoves)
	if v == game.Max {
		// A solve that ran out of search budget returns a dominating set
		// nobody certified: that many responses may not have been best ones.
		fmt.Printf("; %d responder calls, %d solves, %d out of search budget",
			res.Evaluations, res.Scan.Solves, res.Scan.BudgetExhausted)
	}
	fmt.Println()
	fs := res.FinalStats
	fmt.Printf("final: diameter=%d social=%.1f quality=%.3f unfairness=%.3f min/avg view=%d/%.1f\n",
		fs.Diameter, fs.SocialCost, fs.Quality, fs.Unfairness, fs.MinViewSize, fs.AvgViewSize)

	if *analyze {
		rep := analysis.Analyze(res.Final, cfg)
		fmt.Printf("\n%s", rep.Summary())
		fmt.Printf("degree histogram: %s\n", analysis.FormatHistogram(analysis.DegreeHistogram(res.Final)))
		fmt.Printf("bought histogram: %s\n", analysis.FormatHistogram(analysis.BoughtHistogram(res.Final)))
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := ncgio.EncodeState(f, res.Final); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved final state to %s\n", *save)
	}
}
