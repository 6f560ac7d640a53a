// Command ncg-bounds prints the paper's theoretical PoA maps: Figure 3's
// MAXNCG region partition with evaluated lower/upper bounds, and Figure
// 4's SUMNCG lower-bound regions, over a sampled (α, k) grid at a given n.
//
// Usage:
//
//	ncg-bounds -game max|sum|both [-n 100000] [-csv]
//
// An -n below 2 or an unknown -game exits 1 with one line on stderr.
package main

import (
	"flag"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/table"
)

func main() {
	var (
		game = flag.String("game", "both", "which map to print: max | sum | both")
		n    = flag.Int("n", 100000, "network size the bounds are evaluated at")
		csv  = flag.Bool("csv", false, "emit CSV instead of ASCII tables")
	)
	flag.Parse()

	if *n < 2 {
		log.Fatalf("bad -n %d: need n ≥ 2", *n)
	}
	f3, f4 := experiments.Figure3(*n), experiments.Figure4(*n)
	tables, ok := map[string][]*table.Table{"max": {f3}, "sum": {f4}, "both": {f3, f4}}[*game]
	if !ok {
		log.Fatalf("unknown -game %q; valid: max sum both", *game)
	}
	experiments.Report{Tables: tables}.Write(os.Stdout, *csv)
}
