// Package game implements the network-creation-game core: strategy
// profiles with per-player edge ownership, the MAX (Eq. 2) and SUM (Eq. 1)
// player cost functions, social cost, and the social-optimum baselines.
//
// A strategy profile σ assigns each player u a bought set σ_u ⊆ V∖{u}.
// The induced network G(σ) contains edge (u,v) iff v ∈ σ_u or u ∈ σ_v
// (unilateral link formation, Fabrikant et al. model). Both endpoints may
// redundantly buy the same link; each buyer pays α for her copy.
//
// A State holds σ_u as one ascending slice per player: membership is a
// binary search, the profile is already in canonical order (Strategy copies
// it without sorting; Fingerprint and StrategyDiff walk it without
// allocating), and a start state is built by appending owners in edge
// order.
package game

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Variant selects the player cost function.
type Variant int

const (
	// Max is MAXNCG: cost = α·|σ_u| + eccentricity (Eq. 2).
	Max Variant = iota
	// Sum is SUMNCG: cost = α·|σ_u| + Σ_v d(u,v) (Eq. 1).
	Sum
)

// String returns "MAXNCG" or "SUMNCG".
func (v Variant) String() string {
	switch v {
	case Max:
		return "MAXNCG"
	case Sum:
		return "SUMNCG"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// State is a mutable strategy profile together with its induced network.
// The network is maintained incrementally as strategies change.
type State struct {
	g *graph.Graph
	// buys[u] is σ_u, strictly ascending.
	buys [][]int
}

// NewState returns the empty profile on n players (no edges bought).
func NewState(n int) *State {
	return &State{g: graph.New(n), buys: make([][]int, n)}
}

// N returns the number of players.
func (s *State) N() int { return s.g.N() }

// Graph returns the induced network G(σ). Callers must not mutate it.
func (s *State) Graph() *graph.Graph { return s.g }

// Buys reports whether u currently buys the edge towards v.
func (s *State) Buys(u, v int) bool { return sortedContains(s.buys[u], v) }

// BoughtCount returns |σ_u|.
func (s *State) BoughtCount(u int) int { return len(s.buys[u]) }

// Strategy returns σ_u as a sorted slice.
func (s *State) Strategy(u int) []int {
	return append(make([]int, 0, len(s.buys[u])), s.buys[u]...)
}

// Buy adds v to σ_u. It returns false when v was already in σ_u or u == v.
func (s *State) Buy(u, v int) bool {
	i, found := slices.BinarySearch(s.buys[u], v)
	if u == v || found {
		return false
	}
	// A no-op when v already bought (u,v); an out-of-range v panics here,
	// before σ_u changes.
	s.g.AddEdge(u, v)
	s.buys[u] = slices.Insert(s.buys[u], i, v)
	return true
}

// Unbuy removes v from σ_u. The edge (u,v) disappears from the network only
// when v does not buy it either. It returns false when v was not in σ_u.
func (s *State) Unbuy(u, v int) bool {
	i, found := slices.BinarySearch(s.buys[u], v)
	if !found {
		return false
	}
	s.buys[u] = slices.Delete(s.buys[u], i, i+1)
	if !s.Buys(v, u) {
		s.g.RemoveEdge(u, v)
	}
	return true
}

// SetStrategy replaces σ_u wholesale, updating the network incrementally.
func (s *State) SetStrategy(u int, strategy []int) {
	for _, v := range strategy {
		if v == u {
			panic("game: strategy contains the player herself")
		}
		if v < 0 || v >= s.N() {
			panic(fmt.Sprintf("game: strategy target %d out of range", v))
		}
	}
	// Drop, in ascending order, the targets strategy omits. RemoveEdge
	// moves a list's last entry into the hole, so the order of removals is
	// part of the adjacency order every later BFS reads.
	kept := s.buys[u][:0]
	for _, v := range s.buys[u] {
		if slices.Contains(strategy, v) {
			kept = append(kept, v)
		} else if !s.Buys(v, u) {
			s.g.RemoveEdge(u, v)
		}
	}
	s.buys[u] = kept
	// Buy in the caller's order: the graph's adjacency lists record
	// insertion order, so BFS orders — and every downstream tie-break —
	// follow it.
	for _, v := range strategy {
		s.Buy(u, v)
	}
}

// StrategyDiff appends to buf the targets whose arc (u,·) would change if
// σ_u were replaced by strategy — the symmetric difference of the current
// and proposed bought sets — without mutating the state. strategy must be
// sorted ascending (responders return sorted strategies); an unsorted
// slice only over-reports the difference, never under-reports it.
//
// This is the change journal the event-driven dynamics engine diffs
// before calling SetStrategy: the returned targets, together with u, are
// exactly the endpoints of every arc the move adds or removes (including
// redundant buys that leave the network unchanged but alter ownership —
// ownership towards a player is part of her best-response input).
func (s *State) StrategyDiff(u int, strategy []int, buf []int32) []int32 {
	for _, v := range s.buys[u] {
		if !sortedContains(strategy, v) {
			buf = append(buf, int32(v))
		}
	}
	for _, v := range strategy {
		if !sortedContains(s.buys[u], v) {
			buf = append(buf, int32(v))
		}
	}
	return buf
}

// sortedContains reports whether sorted xs contains v.
func sortedContains(xs []int, v int) bool {
	_, found := slices.BinarySearch(xs, v)
	return found
}

// TotalBought returns Σ_u |σ_u| (the total building multiplicity, which can
// exceed the edge count when both endpoints buy a link).
func (s *State) TotalBought() int {
	total := 0
	for _, b := range s.buys {
		total += len(b)
	}
	return total
}

// MaxBought returns the largest |σ_u| over all players.
func (s *State) MaxBought() int {
	max := 0
	for _, b := range s.buys {
		if len(b) > max {
			max = len(b)
		}
	}
	return max
}

// MinBought returns the smallest |σ_u| over all players.
func (s *State) MinBought() int {
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

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	c := &State{g: s.g.Clone(), buys: make([][]int, len(s.buys))}
	for u, b := range s.buys {
		c.buys[u] = slices.Clone(b)
	}
	return c
}

// Validate checks internal consistency: every strategy must be strictly
// ascending and free of self-buys, and the network edge set must equal the
// union of bought arcs. It returns the first violation.
func (s *State) Validate() error {
	n := s.N()
	for u := 0; u < n; u++ {
		for i, v := range s.buys[u] {
			if v == u {
				return fmt.Errorf("game: player %d buys a self-loop", u)
			}
			if i > 0 && v <= s.buys[u][i-1] {
				return fmt.Errorf("game: player %d's strategy is not strictly ascending at %d", u, v)
			}
			if !s.g.HasEdge(u, v) {
				return fmt.Errorf("game: bought edge (%d,%d) missing from network", u, v)
			}
		}
	}
	for _, e := range s.g.Edges() {
		if !s.Buys(e.U, e.V) && !s.Buys(e.V, e.U) {
			return fmt.Errorf("game: network edge (%d,%d) bought by neither endpoint", e.U, e.V)
		}
	}
	return nil
}

// Fingerprint returns a canonical hash of the full strategy profile, used
// by the dynamics engine to detect best-response cycles (§5.1).
func (s *State) Fingerprint() uint64 {
	// FNV-1a over the sorted arc list.
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
	for u, b := range s.buys {
		for _, v := range b {
			mix(uint64(u)<<32 | uint64(v))
		}
		mix(^uint64(0)) // player separator
	}
	return h
}
