package construction

import (
	"math/rand"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/game"
)

func TestTorusParamsValidate(t *testing.T) {
	bad := []TorusParams{
		{D: 1, L: 2, Delta: []int{3}},
		{D: 2, L: 0, Delta: []int{3, 3}},
		{D: 2, L: 2, Delta: []int{3}},
		{D: 2, L: 2, Delta: []int{1, 3}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
	good := TorusParams{D: 2, L: 2, Delta: []int{3, 4}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTorusCountsFigure2(t *testing.T) {
	// Figure 2: d=2, δ=(3,4), ℓ=2. N = 2·3·4 = 24 intersection vertices,
	// n = N(1 + 2^{1}·1) = 72.
	p := TorusParams{D: 2, L: 2, Delta: []int{3, 4}}
	if p.IntersectionCount() != 24 {
		t.Fatalf("N=%d, want 24", p.IntersectionCount())
	}
	if p.VertexCount() != 72 {
		t.Fatalf("n=%d, want 72", p.VertexCount())
	}
	tor, err := BuildTorus(p)
	if err != nil {
		t.Fatal(err)
	}
	if tor.State.N() != 72 {
		t.Fatalf("built n=%d, want 72", tor.State.N())
	}
	if !tor.State.Graph().IsConnected() {
		t.Fatal("torus disconnected")
	}
}

func TestTorusFigure1(t *testing.T) {
	// Figure 1: d=2, δ=(15,5), ℓ=2 → N=150, n=450.
	p := TorusParams{D: 2, L: 2, Delta: []int{15, 5}}
	tor, err := BuildTorus(p)
	if err != nil {
		t.Fatal(err)
	}
	if tor.State.N() != 450 {
		t.Fatalf("n=%d, want 450", tor.State.N())
	}
}

func TestTorusIntersectionDegreesAndOwnership(t *testing.T) {
	p := TorusParams{D: 2, L: 2, Delta: []int{3, 4}}
	tor, err := BuildTorus(p)
	if err != nil {
		t.Fatal(err)
	}
	g := tor.State.Graph()
	for v := 0; v < tor.State.N(); v++ {
		if tor.Intersection[v] {
			if g.Degree(v) != 1<<p.D {
				t.Fatalf("intersection vertex %d degree=%d, want %d", v, g.Degree(v), 1<<p.D)
			}
			if tor.State.BoughtCount(v) != 0 {
				t.Fatalf("intersection vertex %d owns %d edges, want 0", v, tor.State.BoughtCount(v))
			}
		} else {
			if g.Degree(v) != 2 {
				t.Fatalf("path vertex %d degree=%d, want 2", v, g.Degree(v))
			}
			if b := tor.State.BoughtCount(v); b < 1 || b > 2 {
				t.Fatalf("path vertex %d owns %d edges, want 1..2", v, b)
			}
		}
	}
}

func TestTorusLemma33DistanceBound(t *testing.T) {
	p := TorusParams{D: 2, L: 2, Delta: []int{3, 4}}
	tor, err := BuildTorus(p)
	if err != nil {
		t.Fatal(err)
	}
	g := tor.State.Graph()
	// Exhaustive check of Lemma 3.3 on all pairs.
	for x := 0; x < g.N(); x++ {
		dist := g.Distances(x)
		for y := 0; y < g.N(); y++ {
			if x == y {
				continue
			}
			lb := tor.CoordinateLowerBound(x, y)
			if dist[y] < lb {
				t.Fatalf("d(%v,%v)=%d below Lemma 3.3 bound %d",
					tor.Coords[x], tor.Coords[y], dist[y], lb)
			}
		}
	}
	// Equality is attained along a diagonal: from an intersection vertex,
	// (x ± h, y ± h) is at distance exactly h for h <= 3.
	v := tor.VertexAt([]int{0, 0})
	dist := g.Distances(v)
	for _, h := range []int{1, 2, 3} {
		for _, s := range [][2]int{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
			c := []int{s[0] * h, s[1] * h}
			if w := tor.VertexAt(c); w < 0 || dist[w] != h {
				t.Fatalf("h=%d: %v is vertex %d, want one at distance h from (0,0)", h, c, w)
			}
		}
	}
}

func TestTorusCorollary34Diameter(t *testing.T) {
	p := TorusParams{D: 2, L: 2, Delta: []int{3, 5}}
	tor, err := BuildTorus(p)
	if err != nil {
		t.Fatal(err)
	}
	diam := tor.State.Graph().Diameter()
	if lb := tor.DiameterLowerBound(); diam < lb {
		t.Fatalf("diameter=%d below Corollary 3.4 bound %d", diam, lb)
	}
}

func TestTorusVertexAt(t *testing.T) {
	p := TorusParams{D: 2, L: 2, Delta: []int{3, 4}}
	tor, err := BuildTorus(p)
	if err != nil {
		t.Fatal(err)
	}
	// Origin is an intersection vertex.
	v := tor.VertexAt([]int{0, 0})
	if v < 0 || !tor.Intersection[v] {
		t.Fatalf("origin lookup failed: %d", v)
	}
	// Coordinates wrap.
	if w := tor.VertexAt([]int{12, 16}); w != v { // 12 = 2·3·2, 16 = 2·4·2
		t.Fatalf("wrapped lookup %d, want %d", w, v)
	}
	if tor.VertexAt([]int{1, 0}) != -1 {
		t.Fatal("nonexistent coordinate found")
	}
}

func TestTorusThreeDimensions(t *testing.T) {
	p := TorusParams{D: 3, L: 2, Delta: []int{2, 2, 3}}
	tor, err := BuildTorus(p)
	if err != nil {
		t.Fatal(err)
	}
	// N = 2·2·2·3 = 24, n = 24·(1+4·1) = 120.
	if tor.State.N() != 120 {
		t.Fatalf("n=%d, want 120", tor.State.N())
	}
	g := tor.State.Graph()
	for v := 0; v < g.N(); v++ {
		want := 2
		if tor.Intersection[v] {
			want = 8
		}
		if g.Degree(v) != want {
			t.Fatalf("vertex %d degree=%d, want %d", v, g.Degree(v), want)
		}
	}
	if !g.IsConnected() {
		t.Fatal("3-d torus disconnected")
	}
}

func TestTorusIsLKETheorem312Regime(t *testing.T) {
	// Theorem 3.12 regime: α=2 → ℓ=2; k=4 → d=⌈log2(4)⌉=2,
	// δ1=⌈4/2⌉+1=3. Pick δ2=4 (Figure 2's graph!). Lemmas 3.7 and 3.11
	// say every vertex is in equilibrium. Audit with the exact responder.
	p := TorusParams{D: 2, L: 2, Delta: []int{3, 4}}
	tor, err := BuildTorus(p)
	if err != nil {
		t.Fatal(err)
	}
	k, alpha := 4, 2.0
	cfg := dynamics.DefaultConfig(game.Max, alpha, k)
	if dev := dynamics.FirstDeviator(tor.State, cfg); dev != -1 {
		r := dynamics.NewMaxResponder()(tor.State, dev, k, alpha)
		t.Fatalf("player %d (coords %v, intersection=%v) deviates: %+v",
			dev, tor.Coords[dev], tor.Intersection[dev], r)
	}
}

func TestTheorem312Params(t *testing.T) {
	p, err := Theorem312Params(2000, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.L != 2 || p.D != 2 {
		t.Fatalf("params=%+v, want ℓ=2 d=2", p)
	}
	if p.Delta[0] != 3 {
		t.Fatalf("δ1=%d, want 3", p.Delta[0])
	}
	if p.VertexCount() > 2000 {
		t.Fatalf("vertex count %d exceeds budget", p.VertexCount())
	}
	if p.Delta[p.D-1] < p.Delta[0] {
		t.Fatalf("δd=%d < δ1=%d", p.Delta[p.D-1], p.Delta[0])
	}
	if _, err := Theorem312Params(100, 40, 2); err == nil {
		t.Fatal("oversized k accepted")
	}
	if _, err := Theorem312Params(100, 4, 0.5); err == nil {
		t.Fatal("α <= 1 accepted")
	}
}

func TestCycleStateLemma31(t *testing.T) {
	s, err := CycleState(14)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < s.N(); u++ {
		if s.BoughtCount(u) != 1 {
			t.Fatalf("player %d owns %d edges, want 1", u, s.BoughtCount(u))
		}
	}
	// k=3, α=3 >= k-1: must be an LKE (Lemma 3.1).
	cfg := dynamics.DefaultConfig(game.Max, 3, 3)
	if !dynamics.IsLKE(s, cfg) {
		t.Fatal("Lemma 3.1 cycle is not an LKE at α=3, k=3")
	}
	if _, err := CycleState(2); err == nil {
		t.Fatal("tiny cycle accepted")
	}
}

func TestHighGirthStateLemma32(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// k=2 → girth >= 6; q=3-regular on 40 vertices.
	s, err := HighGirthState(40, 3, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Graph().Girth(); got < 6 {
		t.Fatalf("girth=%d, want >= 6", got)
	}
	// Lemma 3.2 with q=3, α >= 1: stable for MAXNCG at k=2.
	cfg := dynamics.DefaultConfig(game.Max, 1.5, 2)
	if !dynamics.IsLKE(s, cfg) {
		t.Fatal("high-girth graph is not an LKE at α=1.5, k=2")
	}
}

func TestProjectivePlaneState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s, err := ProjectivePlaneState(3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 26 { // 2(9+3+1)
		t.Fatalf("n=%d, want 26", s.N())
	}
	if s.Graph().Girth() != 6 {
		t.Fatalf("girth=%d, want 6", s.Graph().Girth())
	}
	if _, err := ProjectivePlaneState(4, rng); err == nil {
		t.Fatal("composite order accepted")
	}
}
