package dynamics

import (
	"context"
	"fmt"

	"repro/internal/bestresponse"
	"repro/internal/game"
)

// Move records one applied strategy change.
type Move struct {
	Round  int
	Player int
	// Old and New are the strategies before and after (sorted).
	Old []int
	New []int
	// CostBefore/CostAfter are the player's view-evaluated costs.
	CostBefore float64
	CostAfter  float64
}

// String renders the move compactly.
func (m Move) String() string {
	return fmt.Sprintf("r%d p%d: %v -> %v (%.2f -> %.2f)",
		m.Round, m.Player, m.Old, m.New, m.CostBefore, m.CostAfter)
}

// RunTraced is Run with a full move log: every applied strategy change is
// recorded, which supports replay, debugging of non-convergence, and the
// §5.1 "total number of strategy changes" statistic at move granularity.
// It shares the event-driven engine, so the log is identical to what the
// naive loop would record.
func RunTraced(s *game.State, cfg Config) (Result, []Move) {
	var moves []Move
	res, _ := runEngine(context.Background(), s, cfg, RoundRobin, nil, func(round, u int, r bestresponse.Response) {
		moves = append(moves, Move{
			Round:      round,
			Player:     u,
			Old:        s.Strategy(u),
			New:        append([]int(nil), r.Strategy...),
			CostBefore: r.CurrentCost,
			CostAfter:  r.Cost,
		})
	})
	return res, moves
}
