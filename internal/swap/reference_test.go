package swap

import (
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/view"
)

// This file retains the original clone-and-BFS swap scan, verbatim except
// for the ref prefix, as the executable specification for BestSwap. The
// differential tests pin the two against each other on randomized states.

// usage evaluates the objective for the center of a modified view graph.
func usage(h *graph.Graph, center int, obj Objective) int {
	dist := make([]int, h.N())
	h.BFS(center, dist)
	switch obj {
	case MaxEcc:
		ecc := 0
		for _, d := range dist {
			if d > ecc {
				ecc = d
			}
		}
		return ecc
	case SumDist:
		sum := 0
		for _, d := range dist {
			sum += d
		}
		return sum
	default:
		panic("swap: unknown objective")
	}
}

// refBestSwap is the reference implementation of BestSwap.
func refBestSwap(s *game.State, u, k int, obj Objective) (SwapMove, bool) {
	v := view.Extract(s.Graph(), u, k)
	base := usage(v.H, v.Center, obj)
	best := SwapMove{}
	bestUsage := base
	found := false
	for _, old := range s.Strategy(u) {
		lOld, okOld := v.Local[old]
		if !okOld {
			continue // bought edge whose endpoint left the view: untouchable
		}
		doubleOwned := s.Buys(old, u)
		for _, cand := range v.Orig {
			if cand == u || cand == old {
				continue
			}
			lCand := v.Local[cand]
			h := v.H.Clone()
			if !doubleOwned {
				h.RemoveEdge(v.Center, lOld)
			}
			added := h.AddEdge(v.Center, lCand)
			cost := usage(h, v.Center, obj)
			if cost < bestUsage && added {
				bestUsage = cost
				best = SwapMove{Player: u, Old: old, New: cand}
				found = true
			}
		}
	}
	return best, found
}
