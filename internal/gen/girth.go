package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// ProjectivePlaneIncidence returns the point-line incidence graph of the
// projective plane PG(2,q) for a prime q: a bipartite, (q+1)-regular graph
// on 2(q²+q+1) vertices with girth exactly 6.
//
// This is the exact g=6 member of the dense high-girth family invoked in
// Lemma 3.2 (the paper cites Lazebnik–Ustimenko–Woldar; incidence graphs of
// projective planes achieve the same parameters for girth 6 and are
// constructible with elementary modular arithmetic — see the package doc).
// Points occupy ids [0, q²+q+1); lines occupy ids [q²+q+1, 2(q²+q+1)).
func ProjectivePlaneIncidence(q int) (*graph.Graph, error) {
	if q < 2 || !isPrime(q) {
		return nil, fmt.Errorf("gen: projective plane order %d is not a prime", q)
	}
	// Normalized homogeneous coordinates over GF(q): the q²+q+1 points are
	// (1, a, b), (0, 1, a), (0, 0, 1). Lines use the same normalization via
	// duality; point (x,y,z) is on line [a,b,c] iff ax+by+cz ≡ 0 (mod q).
	coords := make([][3]int, 0, q*q+q+1)
	for a := 0; a < q; a++ {
		for b := 0; b < q; b++ {
			coords = append(coords, [3]int{1, a, b})
		}
	}
	for a := 0; a < q; a++ {
		coords = append(coords, [3]int{0, 1, a})
	}
	coords = append(coords, [3]int{0, 0, 1})

	np := len(coords)
	g := graph.New(2 * np)
	for pi, p := range coords {
		for li, l := range coords {
			if (p[0]*l[0]+p[1]*l[1]+p[2]*l[2])%q == 0 {
				g.AddEdge(pi, np+li)
			}
		}
	}
	return g, nil
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// RegularHighGirth builds a q-regular graph on n vertices with girth at
// least g, using randomized greedy growth with restarts: edges are added
// between degree-deficient vertices whose current distance is at least g-1,
// so no cycle shorter than g can close. It returns an error when no graph
// is found within maxRestarts attempts (the construction is infeasible when
// n is too small relative to q and g — roughly n must exceed the Moore
// bound for (q,g)).
//
// The resulting graph is exactly q-regular and has certified girth >= g;
// density is near-optimal for small g, weaker than algebraic constructions
// for large g (documented substitution, see the package doc).
func RegularHighGirth(n, q, g int, rng *rand.Rand, maxRestarts int) (*graph.Graph, error) {
	if q < 2 || g < 3 {
		return nil, fmt.Errorf("gen: RegularHighGirth needs q >= 2 and g >= 3 (got q=%d g=%d)", q, g)
	}
	if n*q%2 != 0 {
		return nil, fmt.Errorf("gen: n*q must be even (got n=%d q=%d)", n, q)
	}
	if q >= n {
		return nil, fmt.Errorf("gen: need q < n (got q=%d n=%d)", q, n)
	}
	if maxRestarts < 1 {
		maxRestarts = 1
	}
	for restart := 0; restart < maxRestarts; restart++ {
		if gr := tryRegularHighGirth(n, q, g, rng); gr != nil {
			return gr, nil
		}
	}
	return nil, fmt.Errorf("gen: no %d-regular girth-%d graph on %d vertices found in %d restarts", q, g, n, maxRestarts)
}

func tryRegularHighGirth(n, q, g int, rng *rand.Rand) *graph.Graph {
	gr := graph.New(n)
	deficient := make([]int, n)
	for i := range deficient {
		deficient[i] = i
	}
	scratch := graph.GetScratch(n)
	defer graph.PutScratch(scratch)
	// Repeatedly pick a random deficient vertex and connect it to a random
	// compatible deficient partner (distance >= g-1, not already adjacent).
	stall := 0
	for len(deficient) > 1 && stall < 4*n*q {
		ui := rng.Intn(len(deficient))
		u := deficient[ui]
		gr.BFSWithinScratch(u, g-2, scratch)
		// Candidates: deficient vertices at distance >= g-1 from u.
		var candidates []int
		for _, v := range deficient {
			if v != u && scratch.Dist(v) == graph.Unreachable {
				candidates = append(candidates, v)
			}
		}
		if len(candidates) == 0 {
			stall++
			continue
		}
		v := candidates[rng.Intn(len(candidates))]
		gr.AddEdge(u, v)
		stall = 0
		// Compact the deficient list.
		next := deficient[:0]
		for _, w := range deficient {
			if gr.Degree(w) < q {
				next = append(next, w)
			}
		}
		deficient = next
	}
	if len(deficient) > 0 {
		return nil
	}
	return gr
}
