package game

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// mapState is the map-based profile State replaced: one map[int]bool of
// bought targets per player, kept as the executable specification of
// ownership. Its methods are State's from before ownership became sorted
// slices, unchanged.
type mapState struct {
	g    *graph.Graph
	buys []map[int]bool
}

func newMapState(n int) *mapState {
	buys := make([]map[int]bool, n)
	for i := range buys {
		buys[i] = make(map[int]bool)
	}
	return &mapState{g: graph.New(n), buys: buys}
}

func (s *mapState) N() int                { return s.g.N() }
func (s *mapState) Buys(u, v int) bool    { return s.buys[u][v] }
func (s *mapState) BoughtCount(u int) int { return len(s.buys[u]) }

func (s *mapState) Strategy(u int) []int {
	out := make([]int, 0, len(s.buys[u]))
	for v := range s.buys[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func (s *mapState) Buy(u, v int) bool {
	if u == v || s.buys[u][v] {
		return false
	}
	s.buys[u][v] = true
	s.g.AddEdge(u, v)
	return true
}

func (s *mapState) Unbuy(u, v int) bool {
	if !s.buys[u][v] {
		return false
	}
	delete(s.buys[u], v)
	if !s.buys[v][u] {
		s.g.RemoveEdge(u, v)
	}
	return true
}

func (s *mapState) SetStrategy(u int, strategy []int) {
	old := s.Strategy(u)
	want := make(map[int]bool, len(strategy))
	for _, v := range strategy {
		if v == u {
			panic("game: strategy contains the player herself")
		}
		if v < 0 || v >= s.N() {
			panic(fmt.Sprintf("game: strategy target %d out of range", v))
		}
		want[v] = true
	}
	for _, v := range old {
		if !want[v] {
			s.Unbuy(u, v)
		}
	}
	for _, v := range strategy {
		s.Buy(u, v)
	}
}

func (s *mapState) StrategyDiff(u int, strategy []int, buf []int32) []int32 {
	for v := range s.buys[u] {
		if i := sort.SearchInts(strategy, v); i == len(strategy) || strategy[i] != v {
			buf = append(buf, int32(v))
		}
	}
	for _, v := range strategy {
		if !s.buys[u][v] {
			buf = append(buf, int32(v))
		}
	}
	return buf
}

func (s *mapState) TotalBought() int {
	total := 0
	for _, b := range s.buys {
		total += len(b)
	}
	return total
}

func (s *mapState) MaxBought() int {
	max := 0
	for _, b := range s.buys {
		if len(b) > max {
			max = len(b)
		}
	}
	return max
}

func (s *mapState) MinBought() int {
	if len(s.buys) == 0 {
		return 0
	}
	min := len(s.buys[0])
	for _, b := range s.buys[1:] {
		if len(b) < min {
			min = len(b)
		}
	}
	return min
}

func (s *mapState) Clone() *mapState {
	c := &mapState{g: s.g.Clone(), buys: make([]map[int]bool, len(s.buys))}
	for u, b := range s.buys {
		c.buys[u] = make(map[int]bool, len(b))
		for v := range b {
			c.buys[u][v] = true
		}
	}
	return c
}

func (s *mapState) Validate() error {
	for u := 0; u < s.N(); u++ {
		for v := range s.buys[u] {
			if v == u {
				return fmt.Errorf("game: player %d buys a self-loop", u)
			}
			if !s.g.HasEdge(u, v) {
				return fmt.Errorf("game: bought edge (%d,%d) missing from network", u, v)
			}
		}
	}
	for _, e := range s.g.Edges() {
		if !s.buys[e.U][e.V] && !s.buys[e.V][e.U] {
			return fmt.Errorf("game: network edge (%d,%d) bought by neither endpoint", e.U, e.V)
		}
	}
	return nil
}

func (s *mapState) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	for u := 0; u < s.N(); u++ {
		for _, v := range s.Strategy(u) {
			mix(uint64(u)<<32 | uint64(v))
		}
		mix(^uint64(0))
	}
	return h
}

// mapFromGraph is the start-state constructor the map model had: one Buy
// per edge in Edges order, U buying when lowOwns says so.
func mapFromGraph(g *graph.Graph, lowOwns func() bool) *mapState {
	s := newMapState(g.N())
	for _, e := range g.Edges() {
		if lowOwns() {
			s.Buy(e.U, e.V)
		} else {
			s.Buy(e.V, e.U)
		}
	}
	return s
}

// ownershipPair is a State and the model it must agree with.
type ownershipPair struct {
	s *State
	m *mapState
}

// startPair builds the first pair of a sequence: the empty profile, or a
// random network owned by coin tosses or by lower endpoints, so the
// sequences also run on the capacity-capped strategies a start state
// holds.
func startPair(seed int64, rng *rand.Rand) ownershipPair {
	n := 2 + rng.Intn(11)
	g := graph.New(n)
	for i := rng.Intn(2 * n); i > 0; i-- {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	switch seed % 3 {
	case 1:
		coins, modelCoins := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		return ownershipPair{FromGraphRandomOwners(g, coins), mapFromGraph(g, func() bool { return modelCoins.Intn(2) == 0 })}
	case 2:
		return ownershipPair{FromGraphLowOwners(g), mapFromGraph(g, func() bool { return true })}
	default:
		return ownershipPair{NewState(n), newMapState(n)}
	}
}

// TestOwnershipMatchesMapModel drives State and the map model through the
// same seeded sequences of Buy, Unbuy, SetStrategy and Clone — redundant
// buys, swaps, duplicate and unsorted targets, the self and out-of-range
// panics — and after every operation checks every pair built so far: a
// clone that shared storage with its source would drift from its own
// model when the source moves.
func TestOwnershipMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pairs := []ownershipPair{startPair(seed, rng)}
		n := pairs[0].m.N()
		if err := agree(pairs[0], rng); err != nil {
			t.Fatalf("seed %d start state: %v", seed, err)
		}
		for step := 0; step < 300; step++ {
			p := pairs[rng.Intn(len(pairs))]
			u := rng.Intn(n)
			var op string
			switch r := rng.Intn(20); {
			case r < 6:
				v := rng.Intn(n)
				op = fmt.Sprintf("Buy(%d,%d)", u, v)
				if got, want := p.s.Buy(u, v), p.m.Buy(u, v); got != want {
					t.Fatalf("seed %d step %d %s = %v, model %v", seed, step, op, got, want)
				}
			case r < 10:
				v := rng.Intn(n)
				if rng.Intn(2) == 0 && p.m.BoughtCount(u) > 0 {
					own := p.m.Strategy(u)
					v = own[rng.Intn(len(own))]
				}
				op = fmt.Sprintf("Unbuy(%d,%d)", u, v)
				if got, want := p.s.Unbuy(u, v), p.m.Unbuy(u, v); got != want {
					t.Fatalf("seed %d step %d %s = %v, model %v", seed, step, op, got, want)
				}
			case r < 18:
				strategy := randomStrategy(rng, p.m, u)
				op = fmt.Sprintf("SetStrategy(%d,%v)", u, strategy)
				p.s.SetStrategy(u, strategy)
				p.m.SetStrategy(u, strategy)
			case r < 19:
				bad := randomStrategy(rng, p.m, u)
				bad = slices.Insert(bad, rng.Intn(len(bad)+1), []int{u, -1, n}[rng.Intn(3)])
				op = fmt.Sprintf("SetStrategy(%d,%v) panics", u, bad)
				if !panics(func() { p.s.SetStrategy(u, bad) }) || !panics(func() { p.m.SetStrategy(u, bad) }) {
					t.Fatalf("seed %d step %d: %s did not panic on both", seed, step, op)
				}
			default:
				op = "Clone"
				if len(pairs) < 4 {
					pairs = append(pairs, ownershipPair{p.s.Clone(), p.m.Clone()})
				}
			}
			for i, q := range pairs {
				if err := agree(q, rng); err != nil {
					t.Fatalf("seed %d step %d after %s, pair %d: %v", seed, step, op, i, err)
				}
			}
		}
	}
}

// randomStrategy proposes a new σ_u: a fresh random set (unsorted, with
// duplicates), the current set with one target swapped for another, a
// redundant re-buy of the current set, or nothing.
func randomStrategy(rng *rand.Rand, m *mapState, u int) []int {
	n := m.N()
	others := func() int {
		v := rng.Intn(n - 1)
		if v >= u {
			v++
		}
		return v
	}
	own := m.Strategy(u)
	switch rng.Intn(4) {
	case 0:
		var out []int
		for i := rng.Intn(n + 2); i > 0; i-- {
			out = append(out, others())
		}
		return out
	case 1:
		if len(own) > 0 {
			own[rng.Intn(len(own))] = others()
		}
		rng.Shuffle(len(own), func(i, j int) { own[i], own[j] = own[j], own[i] })
		return own
	case 2:
		return own
	default:
		return nil
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// agree reports the first observable difference between a State and its
// model: strategies, membership, counts, a diff against a random sorted
// proposal, fingerprint, validity, and the network's adjacency lists in
// order.
func agree(p ownershipPair, rng *rand.Rand) error {
	s, m := p.s, p.m
	n := m.N()
	for u := 0; u < n; u++ {
		if got, want := s.Strategy(u), m.Strategy(u); !slices.Equal(got, want) {
			return fmt.Errorf("Strategy(%d) = %v, model %v", u, got, want)
		}
		if got, want := s.BoughtCount(u), m.BoughtCount(u); got != want {
			return fmt.Errorf("BoughtCount(%d) = %d, model %d", u, got, want)
		}
		for v := -1; v <= n; v++ {
			if got, want := s.Buys(u, v), m.Buys(u, v); got != want {
				return fmt.Errorf("Buys(%d,%d) = %v, model %v", u, v, got, want)
			}
		}
		proposal := randomStrategy(rng, m, u)
		slices.Sort(proposal)
		got, want := s.StrategyDiff(u, proposal, nil), m.StrategyDiff(u, proposal, nil)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			return fmt.Errorf("StrategyDiff(%d,%v) = %v, model %v", u, proposal, got, want)
		}
		if got, want := s.Graph().Neighbors(u), m.g.Neighbors(u); !slices.Equal(got, want) {
			return fmt.Errorf("Neighbors(%d) = %v, model %v", u, got, want)
		}
	}
	if got, want := s.Fingerprint(), m.Fingerprint(); got != want {
		return fmt.Errorf("Fingerprint = %x, model %x", got, want)
	}
	if got, want := [3]int{s.TotalBought(), s.MinBought(), s.MaxBought()}, [3]int{m.TotalBought(), m.MinBought(), m.MaxBought()}; got != want {
		return fmt.Errorf("Total/Min/MaxBought = %v, model %v", got, want)
	}
	if s.Graph().M() != m.g.M() {
		return fmt.Errorf("M = %d, model %d", s.Graph().M(), m.g.M())
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("model: %v", err)
	}
	return s.Validate()
}
