package dynamics

import (
	"fmt"

	"repro/internal/game"
)

// Replay applies a move log to a fresh copy of the starting state and
// returns the reconstructed final state. It errors when a move's Old
// strategy does not match the state (log/state mismatch). It is how the
// tests check that RunTraced's log is complete — replayed, it must
// reproduce the final state — and nothing outside them consumes a log, so
// it lives here.
func Replay(start *game.State, moves []Move) (*game.State, error) {
	s := start.Clone()
	for i, m := range moves {
		cur := s.Strategy(m.Player)
		if !equalInts(cur, m.Old) {
			return nil, fmt.Errorf("dynamics: move %d expects %v, state has %v", i, m.Old, cur)
		}
		s.SetStrategy(m.Player, m.New)
	}
	return s, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
