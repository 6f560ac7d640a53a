package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 5, 0", g.N(), g.M())
	}
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 0 {
			t.Errorf("vertex %d has degree %d, want 0", v, g.Degree(v))
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeBasic(t *testing.T) {
	g := New(4)
	if !g.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) returned false on first insert")
	}
	if g.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) returned true on duplicate insert")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("AddEdge(1,0) returned true on reversed duplicate")
	}
	if g.AddEdge(2, 2) {
		t.Fatal("AddEdge allowed a self-loop")
	}
	if g.M() != 1 {
		t.Fatalf("M() = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("HasEdge reports absent edge")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge(1,0) failed on present edge")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge succeeded on absent edge")
	}
	if g.M() != 1 || g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatalf("unexpected state after removal: m=%d", g.M())
	}
	if g.RemoveEdge(3, 3) {
		t.Fatal("RemoveEdge succeeded on self-loop")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	g := New(3)
	for _, fn := range []func(){
		func() { g.AddEdge(0, 3) },
		func() { g.AddEdge(-1, 0) },
		func() { g.HasEdge(0, 5) },
		func() { g.Degree(3) },
		func() { g.Neighbors(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("mutating clone affected original")
	}
	g.RemoveEdge(0, 1)
	if !c.HasEdge(0, 1) {
		t.Fatal("mutating original affected clone")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(5)
	g.AddEdge(3, 1)
	g.AddEdge(0, 4)
	g.AddEdge(2, 0)
	edges := g.Edges()
	want := []Edge{{0, 2}, {0, 4}, {1, 3}}
	if len(edges) != len(want) {
		t.Fatalf("got %d edges, want %d", len(edges), len(want))
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("edges[%d] = %v, want %v", i, edges[i], want[i])
		}
	}
}

func TestEqual(t *testing.T) {
	a := New(3)
	b := New(3)
	a.AddEdge(0, 1)
	b.AddEdge(0, 1)
	if !a.Equal(b) {
		t.Fatal("equal graphs reported unequal")
	}
	b.AddEdge(1, 2)
	if a.Equal(b) {
		t.Fatal("unequal edge counts reported equal")
	}
	a.AddEdge(0, 2)
	if a.Equal(b) {
		t.Fatal("different edge sets reported equal")
	}
	if a.Equal(New(4)) {
		t.Fatal("different vertex counts reported equal")
	}
}

// path builds a path v0-v1-...-v_{n-1}.
func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// cycle builds a cycle on n >= 3 vertices.
func cycle(n int) *Graph {
	g := path(n)
	g.AddEdge(n-1, 0)
	return g
}

// star builds a star with center 0.
func star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// complete builds K_n.
func complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// randomConnected returns a connected random graph: a random spanning tree
// plus extra random edges.
func randomConnected(n int, extra int, rng *rand.Rand) *Graph {
	g := New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	for e := 0; e < extra; e++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

func TestBFSPath(t *testing.T) {
	g := path(6)
	dist := g.Distances(0)
	for v := 0; v < 6; v++ {
		if dist[v] != v {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], v)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	dist := g.Distances(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatalf("unreachable vertices got finite distances: %v", dist)
	}
	if dist[1] != 1 || dist[0] != 0 {
		t.Fatalf("wrong distances in reachable component: %v", dist)
	}
}

func TestBFSBufferReuse(t *testing.T) {
	g := cycle(8)
	dist := make([]int, 8)
	g.BFS(0, dist)
	if dist[4] != 4 {
		t.Fatalf("dist[4] = %d, want 4", dist[4])
	}
	g.BFS(4, dist)
	if dist[0] != 4 || dist[4] != 0 {
		t.Fatalf("buffer reuse produced stale distances: %v", dist)
	}
}

func TestBFSWrongBufferPanics(t *testing.T) {
	g := path(3)
	defer func() {
		if recover() == nil {
			t.Fatal("BFS with short dist buffer did not panic")
		}
	}()
	g.BFS(0, make([]int, 2))
}

func TestBFSWithin(t *testing.T) {
	g := path(10)
	dist := make([]int, 10)
	visited := g.BFSWithin(3, 2, dist)
	if len(visited) != 5 { // vertices 1..5
		t.Fatalf("visited %d vertices, want 5", len(visited))
	}
	for v := 0; v < 10; v++ {
		want := v - 3
		if want < 0 {
			want = -want
		}
		if want <= 2 {
			if dist[v] != want {
				t.Errorf("dist[%d] = %d, want %d", v, dist[v], want)
			}
		} else if dist[v] != Unreachable {
			t.Errorf("dist[%d] = %d, want Unreachable", v, dist[v])
		}
	}
}

func TestBFSWithinZero(t *testing.T) {
	g := complete(5)
	ball := g.BFSWithin(2, 0, make([]int, 5))
	if len(ball) != 1 || ball[0] != 2 {
		t.Fatalf("BFSWithin(2,0) = %v, want [2]", ball)
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	cases := []struct {
		name         string
		g            *Graph
		diam, radius int
	}{
		{"path6", path(6), 5, 3},
		{"cycle8", cycle(8), 4, 4},
		{"star7", star(7), 2, 1},
		{"K5", complete(5), 1, 1},
		{"single", New(1), 0, 0},
	}
	for _, c := range cases {
		if d := c.g.Diameter(); d != c.diam {
			t.Errorf("%s: diameter = %d, want %d", c.name, d, c.diam)
		}
		if r := slices.Min(c.g.AllEccentricities()); r != c.radius {
			t.Errorf("%s: radius = %d, want %d", c.name, r, c.radius)
		}
	}
}

func TestDisconnectedDiameter(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.Diameter() != Unreachable {
		t.Fatal("disconnected diameter should be Unreachable")
	}
	if slices.Min(g.AllEccentricities()) != Unreachable {
		t.Fatal("disconnected radius should be Unreachable")
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestComponents(t *testing.T) {
	g := New(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("got %d components, want 4", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 || len(comps[3]) != 1 {
		t.Fatalf("unexpected component sizes: %v", comps)
	}
}

func TestAllEccentricitiesMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(30, 15, rng)
		all := g.AllEccentricities()
		for v := 0; v < g.N(); v++ {
			if want := g.Eccentricity(v); all[v] != want {
				t.Fatalf("trial %d: AllEccentricities[%d] = %d, want %d", trial, v, all[v], want)
			}
		}
	}
}

func TestAllSumDistancesMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(25, 10, rng)
		all := g.AllSumDistances()
		for v := 0; v < g.N(); v++ {
			if want := g.SumDistances(v); all[v] != want {
				t.Fatalf("trial %d: AllSumDistances[%d] = %d, want %d", trial, v, all[v], want)
			}
		}
	}
}

func TestGirth(t *testing.T) {
	cases := []struct {
		name  string
		g     *Graph
		girth int
	}{
		{"tree", path(8), Unreachable},
		{"C3", cycle(3), 3},
		{"C5", cycle(5), 5},
		{"C10", cycle(10), 10},
		{"K4", complete(4), 3},
		{"K5", complete(5), 3},
	}
	for _, c := range cases {
		if got := c.g.Girth(); got != c.girth {
			t.Errorf("%s: girth = %d, want %d", c.name, got, c.girth)
		}
	}
}

func TestGirthPetersen(t *testing.T) {
	// The Petersen graph: 3-regular, girth 5.
	g := New(10)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5)     // outer C5
		g.AddEdge(5+i, 5+(i+2)%5) // inner pentagram
		g.AddEdge(i, 5+i)         // spokes
	}
	if got := g.Girth(); got != 5 {
		t.Fatalf("Petersen girth = %d, want 5", got)
	}
}

func TestGirthChordedCycle(t *testing.T) {
	g := cycle(9)
	g.AddEdge(0, 4) // creates a 5-cycle and a 6-cycle
	if got := g.Girth(); got != 5 {
		t.Fatalf("girth = %d, want 5", got)
	}
}

func TestInduced(t *testing.T) {
	g := cycle(6)
	h, orig := g.Induced([]int{0, 1, 2, 4})
	if h.N() != 4 {
		t.Fatalf("induced N = %d, want 4", h.N())
	}
	if h.M() != 2 { // edges (0,1),(1,2); vertex 4 isolated
		t.Fatalf("induced M = %d, want 2", h.M())
	}
	if !h.HasEdge(0, 1) || !h.HasEdge(1, 2) {
		t.Fatal("induced subgraph missing expected edges")
	}
	for i, v := range []int{0, 1, 2, 4} {
		if orig[i] != v {
			t.Errorf("orig[%d] = %d, want %d", i, orig[i], v)
		}
	}
}

func TestInducedDuplicatePanics(t *testing.T) {
	g := path(4)
	defer func() {
		if recover() == nil {
			t.Fatal("Induced with duplicate vertices did not panic")
		}
	}()
	g.Induced([]int{0, 1, 1})
}

func TestPower(t *testing.T) {
	g := path(5)
	p2 := g.Power(2)
	wantEdges := []Edge{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}}
	got := p2.Edges()
	if len(got) != len(wantEdges) {
		t.Fatalf("P2 edges = %v, want %v", got, wantEdges)
	}
	for i := range wantEdges {
		if got[i] != wantEdges[i] {
			t.Fatalf("P2 edges = %v, want %v", got, wantEdges)
		}
	}
	if !g.Power(1).Equal(g) {
		t.Fatal("Power(1) != g")
	}
	if g.Power(0).M() != 0 {
		t.Fatal("Power(0) is not empty")
	}
	if p := g.Power(10); p.M() != 5*4/2 {
		t.Fatalf("large power not complete: m=%d", p.M())
	}
}

func TestMaxAndAverageDegree(t *testing.T) {
	g := star(5)
	if g.MaxDegree() != 4 {
		t.Fatalf("MaxDegree = %d, want 4", g.MaxDegree())
	}
	if got, want := g.AverageDegree(), 2*4.0/5.0; got != want {
		t.Fatalf("AverageDegree = %v, want %v", got, want)
	}
	if New(0).AverageDegree() != 0 {
		t.Fatal("empty graph average degree not 0")
	}
}

// --- property-based tests (testing/quick) ---

// qcGraph derives a deterministic random connected graph from seed material.
func qcGraph(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	return randomConnected(n, rng.Intn(2*n), rng)
}

func TestQuickDistanceSymmetry(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		n := 3 + int(a%20)
		g := qcGraph(seed, n)
		u, v := int(a)%n, int(b)%n
		return g.Distances(u)[v] == g.Distances(v)[u]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed int64, a, b, c uint8) bool {
		n := 3 + int(a%15)
		g := qcGraph(seed, n)
		x, y, z := int(a)%n, int(b)%n, int(c)%n
		return g.Distances(x)[z] <= g.Distances(x)[y]+g.Distances(y)[z]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBallNesting(t *testing.T) {
	f := func(seed int64, a, r uint8) bool {
		n := 3 + int(a%15)
		g := qcGraph(seed, n)
		src := int(a) % n
		k := int(r % 5)
		dist := make([]int, n)
		inner := g.BFSWithin(src, k, dist)
		outer := g.BFSWithin(src, k+1, dist)
		in := make(map[int32]bool, len(outer))
		for _, v := range outer {
			in[v] = true
		}
		for _, v := range inner {
			if !in[v] {
				return false
			}
		}
		return len(inner) <= len(outer)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPowerMonotone(t *testing.T) {
	f := func(seed int64, a uint8) bool {
		n := 3 + int(a%10)
		g := qcGraph(seed, n)
		p1 := g.Power(1)
		p2 := g.Power(2)
		for _, e := range p1.Edges() {
			if !p2.HasEdge(e.U, e.V) {
				return false
			}
		}
		// Power-2 edges must have distance <= 2 in g.
		for _, e := range p2.Edges() {
			if g.Distances(e.U)[e.V] > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAddRemoveInverse(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		n := 3 + int(a%15)
		g := qcGraph(seed, n)
		u, v := int(a)%n, int(b)%n
		if u == v {
			return true
		}
		had := g.HasEdge(u, v)
		before := g.Clone()
		if had {
			g.RemoveEdge(u, v)
			g.AddEdge(u, v)
		} else {
			g.AddEdge(u, v)
			g.RemoveEdge(u, v)
		}
		return g.Equal(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEccentricityBounds(t *testing.T) {
	f := func(seed int64, a uint8) bool {
		n := 3 + int(a%15)
		g := qcGraph(seed, n)
		diam := g.Diameter()
		rad := slices.Min(g.AllEccentricities())
		// radius <= diameter <= 2*radius for connected graphs.
		return rad <= diam && diam <= 2*rad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
