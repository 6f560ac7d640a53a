// Package swap implements the basic network creation game of Alon,
// Demaine, Hajiaghayi & Leighton (2013) under the locality model: a
// player's only move is to SWAP one endpoint of an edge she owns (no
// purchases, no deletions, no edge price α). The §3.1 torus is a direct
// generalization of Alon et al.'s swap-stable torus, so this package is
// the natural baseline for the paper's lower-bound construction — a
// graph that is swap-stable is the degenerate "α → ∞ with fixed edge
// count" limit of the creation game.
//
// Locality applies exactly as in the main game: a player evaluates a
// swap on her k-neighborhood view, and for the MAX objective the
// worst-case realizable network coincides with the view (the Prop. 2.1
// argument only uses that the view is a subgraph certificate, which
// holds verbatim when the move set shrinks).
//
// BestSwap is what runs — dynamics.SwapResponder puts it behind the
// engine. Run and IsSwapStable are the standalone loop the daemon's swap
// dialect and the root integration tests are differential-tested against,
// and reference_test.go keeps the original clone-and-BFS scan
// (refBestSwap) as BestSwap's executable specification.
package swap

import (
	"repro/internal/game"
	"repro/internal/view"
)

// SwapMove is a candidate move: replace owned edge (u, Old) by (u, New).
type SwapMove struct {
	Player int
	Old    int
	New    int
}

// Objective selects the usage cost a swap tries to reduce.
type Objective int

const (
	// MaxEcc minimizes the player's eccentricity in her view (the MAX
	// objective of the basic game).
	MaxEcc Objective = iota
	// SumDist minimizes the sum of view distances (the SUM objective).
	SumDist
)

// BestSwap returns the best improving swap for player u on her radius-k
// view, or ok=false when no swap strictly reduces the objective. Swaps
// that disconnect the view (pushing some visible vertex to infinity) are
// never improving and are skipped implicitly by the usage comparison.
//
// The scan runs on a pooled view.Workspace: the view is extracted once,
// each removal is an O(ball) distance recompute, and each candidate
// re-attachment is an incremental relax/undo. Results are identical to
// the reference implementation retained in reference_test.go
// (refBestSwap): same move, same strict-integer tie-breaks.
func BestSwap(s *game.State, u, k int, obj Objective) (SwapMove, bool) {
	ws := view.GetWorkspace()
	m, ok := bestSwap(ws, s, u, k, obj)
	view.PutWorkspace(ws)
	return m, ok
}

func bestSwap(ws *view.Workspace, s *game.State, u, k int, obj Objective) (SwapMove, bool) {
	cost := func() int {
		switch obj {
		case MaxEcc:
			return ws.EccAll()
		case SumDist:
			return ws.SumAll()
		default:
			panic("swap: unknown objective")
		}
	}
	ws.Extract(s.Graph(), u, k)
	ws.ResetBase(ws.CenterAdj)
	bestUsage := cost()
	best := SwapMove{}
	found := false
	b := ws.Size()
	edges := make([]int32, 0, len(ws.CenterAdj))
	for _, old := range s.Strategy(u) {
		lOld := ws.LocalOf(old)
		if lOld < 0 {
			continue // bought edge whose endpoint left the view: untouchable
		}
		doubleOwned := s.Buys(old, u)
		edges = edges[:0]
		for _, l := range ws.CenterAdj {
			if int(l) == lOld && !doubleOwned {
				continue
			}
			edges = append(edges, l)
		}
		ws.ResetBase(edges)
		for l := 1; l < b; l++ {
			if l == lOld {
				continue
			}
			// Distance 1 from the center means the edge already exists in
			// the swapped graph (only center edges reach distance 1), so
			// adding it would be a no-op — the reference's !added case.
			if ws.CurDist(l) == 1 {
				continue
			}
			mark := ws.Mark()
			ws.AddEdgeRelax(int32(l))
			c := cost()
			ws.Undo(mark)
			if c < bestUsage {
				bestUsage = c
				best = SwapMove{Player: u, Old: old, New: int(ws.Orig[l])}
				found = true
			}
		}
	}
	return best, found
}

// Apply executes a swap on the state.
func Apply(s *game.State, m SwapMove) {
	s.Unbuy(m.Player, m.Old)
	s.Buy(m.Player, m.New)
}

// IsSwapStable reports whether no player has an improving swap — the
// local-knowledge analogue of Alon et al.'s swap equilibrium.
func IsSwapStable(s *game.State, k int, obj Objective) bool {
	for u := 0; u < s.N(); u++ {
		if _, ok := BestSwap(s, u, k, obj); ok {
			return false
		}
	}
	return true
}

// Result summarizes a swap dynamics run.
type Result struct {
	Converged bool
	Rounds    int
	Swaps     int
}

// Run iterates round-robin best-swap dynamics until no player can
// improve, or maxRounds elapses.
func Run(s *game.State, k int, obj Objective, maxRounds int) Result {
	if maxRounds <= 0 {
		maxRounds = 200
	}
	var res Result
	for round := 1; round <= maxRounds; round++ {
		res.Rounds = round
		moved := 0
		for u := 0; u < s.N(); u++ {
			if m, ok := BestSwap(s, u, k, obj); ok {
				Apply(s, m)
				moved++
			}
		}
		res.Swaps += moved
		if moved == 0 {
			res.Converged = true
			return res
		}
	}
	return res
}
