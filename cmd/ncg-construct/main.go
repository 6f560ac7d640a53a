// Command ncg-construct builds the paper's §3.1 lower-bound torus,
// verifies its diameter and ownership properties, and optionally draws it
// as ASCII art or emits DOT. The audits of every lower-bound construction
// (the torus, the Lemma 3.1 cycle, the Lemma 3.2 high-girth graphs) are
// `ncg-experiments -run audit`.
//
// Usage:
//
//	ncg-construct -fig 1|2                 # the Figure 1 / Figure 2 torus
//	ncg-construct -d 2 -l 2 -delta 3,4     # a custom torus
//	ncg-construct -dot                     # also print Graphviz DOT
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"repro/internal/construction"
	"repro/internal/experiments"
	"repro/internal/render"
)

func main() {
	var (
		fig    = flag.Int("fig", 0, "build the Figure 1 or Figure 2 torus")
		d      = flag.Int("d", 2, "dimensions")
		l      = flag.Int("l", 2, "stretch ℓ")
		deltas = flag.String("delta", "3,4", "comma-separated dimension lengths δ")
		k      = flag.Int("k", 4, "view radius for the report")
		dot    = flag.Bool("dot", false, "emit Graphviz DOT of the torus")
		ascii  = flag.Bool("ascii", false, "draw the torus as ASCII art (d=2 only), with the (k*,k*) view overlay")
	)
	flag.Parse()

	var params construction.TorusParams
	switch *fig {
	case 1:
		params = construction.TorusParams{D: 2, L: 2, Delta: []int{15, 5}}
	case 2:
		params = construction.TorusParams{D: 2, L: 2, Delta: []int{3, 4}}
	case 0:
		var dl []int
		for _, part := range strings.Split(*deltas, ",") {
			x, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				log.Fatalf("bad -delta %q: %v", *deltas, err)
			}
			dl = append(dl, x)
		}
		params = construction.TorusParams{D: *d, L: *l, Delta: dl}
	default:
		log.Fatalf("unknown figure %d (use 1 or 2)", *fig)
	}

	tor, err := construction.BuildTorus(params)
	if err != nil {
		log.Fatal(err)
	}
	g := tor.State.Graph()
	fmt.Printf("torus: d=%d ℓ=%d δ=%v\n", params.D, params.L, params.Delta)
	fmt.Printf("  vertices: %d (intersection: %d)\n", g.N(), params.IntersectionCount())
	fmt.Printf("  edges: %d, diameter: %d (Corollary 3.4 bound: %d)\n",
		g.M(), g.Diameter(), tor.DiameterLowerBound())
	if err := tor.State.Validate(); err != nil {
		log.Fatalf("ownership validation failed: %v", err)
	}
	fmt.Printf("  ownership: valid; intersection vertices own no edges\n")

	if *ascii {
		kStar := params.L * (params.Delta[0] - 1)
		center := tor.VertexAt([]int{kStar, kStar})
		var out string
		if center >= 0 && params.D == 2 {
			out, err = render.TorusASCIIWithView(tor, center, *k)
		} else {
			out, err = render.TorusASCII(tor)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
	}

	if *dot {
		out, err := experiments.TorusDOT(params)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
	}
}
