package construction

import "repro/internal/graph"

// OpenTorus is the "open" variant of the §3.1 construction: coordinates
// are NOT treated modularly, intersection vertices have a-coordinates in
// [1, δ_i], and paths connect intersection vertices only when every
// coordinate differs by exactly ℓ. The paper uses it because "the view of
// each player is isomorphic to a subgraph of this open graph", which
// turns Lemma 3.5 into a local certificate.
type OpenTorus struct {
	Params TorusParams
	Graph  *graph.Graph
	// Coords[v] is the coordinate tuple of vertex v.
	Coords [][]int
	// Intersection[v] reports whether v is an intersection vertex.
	Intersection []bool
}

// BuildOpenTorus constructs the open variant. Intersection vertices are
// tuples (ℓa_1,…,ℓa_d) with a_i ∈ [1, δ_i] and a_1 ≡ … ≡ a_d (mod 2);
// two are joined (by an ℓ-path) when all coordinates differ by exactly ℓ.
func BuildOpenTorus(p TorusParams) (*OpenTorus, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t := &OpenTorus{Params: p}
	id := make(map[string]int)

	// Enumerate intersection vertices.
	var inter [][]int
	var enumerate func(prefix []int, parity int)
	enumerate = func(prefix []int, parity int) {
		i := len(prefix)
		if i == p.D {
			coords := make([]int, p.D)
			for j, a := range prefix {
				coords[j] = a * p.L
			}
			inter = append(inter, coords)
			return
		}
		for a := 1; a <= p.Delta[i]; a++ {
			if a%2 != parity {
				continue
			}
			enumerate(append(prefix, a), parity)
		}
	}
	for parity := 0; parity < 2; parity++ {
		enumerate(nil, parity)
	}

	// Collect all vertices first (intersections + path internals), then
	// build the graph at the right size.
	addCoord := func(coords []int, isInter bool) int {
		key := encodeOpen(coords)
		if v, ok := id[key]; ok {
			return v
		}
		v := len(t.Coords)
		id[key] = v
		t.Coords = append(t.Coords, append([]int(nil), coords...))
		t.Intersection = append(t.Intersection, isInter)
		return v
	}
	for _, c := range inter {
		addCoord(c, true)
	}
	type edge struct{ u, v int }
	var edges []edge
	for _, c := range inter {
		// Connect to the neighbor with all coordinates increased by ℓ
		// under every sign pattern; to add each path once, only walk
		// patterns from the lexicographically smaller endpoint: use the
		// all-plus direction against every subset of minus signs applied
		// symmetrically — equivalently, connect c to c+ℓs for sign
		// vectors s whose first component is +1 (each unordered pair is
		// hit exactly once since negating s swaps the endpoints).
		for signs := 0; signs < 1<<(p.D-1); signs++ {
			target := make([]int, p.D)
			ok := true
			for i := 0; i < p.D; i++ {
				sign := 1
				if i > 0 && signs&(1<<(i-1)) != 0 {
					sign = -1
				}
				target[i] = c[i] + sign*p.L
				if target[i] < p.L || target[i] > p.Delta[i]*p.L {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			prev := addCoord(c, true)
			step := append([]int(nil), c...)
			for j := 1; j <= p.L; j++ {
				for i := 0; i < p.D; i++ {
					if target[i] > c[i] {
						step[i]++
					} else {
						step[i]--
					}
				}
				v := addCoord(step, j == p.L)
				edges = append(edges, edge{prev, v})
				prev = v
			}
		}
	}
	t.Graph = graph.New(len(t.Coords))
	for _, e := range edges {
		t.Graph.AddEdge(e.u, e.v)
	}
	return t, nil
}

func encodeOpen(coords []int) string {
	b := make([]byte, 0, 4*len(coords))
	for _, c := range coords {
		b = append(b, byte(c), byte(c>>8), byte(c>>16), ',')
	}
	return string(b)
}

// lemma35Bound evaluates the right-hand side of Lemma 3.5:
// max_i |x_i − y_i| (no wrap-around in the open graph).
func (t *OpenTorus) lemma35Bound(x, y int) int {
	best := 0
	for i := 0; i < t.Params.D; i++ {
		d := t.Coords[x][i] - t.Coords[y][i]
		if d < 0 {
			d = -d
		}
		if d > best {
			best = d
		}
	}
	return best
}

// CheckLemma35 verifies the Lemma 3.5 distance bound
// d(x, y) >= max_i |x_i − y_i| for every connected vertex pair. It returns
// the first violating pair, or (-1, -1).
func (t *OpenTorus) CheckLemma35() (int, int) {
	n := t.Graph.N()
	for x := 0; x < n; x++ {
		dist := t.Graph.Distances(x)
		for y := 0; y < n; y++ {
			if x == y {
				continue
			}
			d := dist[y]
			if d >= graph.Unreachable {
				continue // open graph may be disconnected at tiny δ
			}
			if d < t.lemma35Bound(x, y) {
				return x, y
			}
		}
	}
	return -1, -1
}
