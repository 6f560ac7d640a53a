package dynamics

import (
	"context"
	"math/rand"

	"repro/internal/game"
)

// Schedule determines the player order within each round. The paper uses
// round-robin (§5.1); the alternatives support ablations on how much the
// activation order matters for convergence speed and equilibrium quality.
type Schedule int

const (
	// RoundRobin activates players 0..n-1 in id order every round
	// (the paper's §5.1 policy).
	RoundRobin Schedule = iota
	// FixedPermutation draws one random permutation up front and reuses
	// it every round.
	FixedPermutation
	// RandomEachRound draws a fresh permutation every round. Cycle
	// detection is disabled (repeats are no longer conclusive).
	RandomEachRound
)

// String names the schedule.
func (s Schedule) String() string {
	switch s {
	case RoundRobin:
		return "round-robin"
	case FixedPermutation:
		return "fixed-permutation"
	case RandomEachRound:
		return "random-each-round"
	default:
		return "unknown"
	}
}

// RunScheduledContext is RunContext with an explicit activation schedule;
// see RunContext for the cancellation and partial-result contract. rng is
// used by the permutation schedules and may be nil for RoundRobin. All
// schedules share the one engine, so they report identically: cycle
// detection runs whenever the activation order is deterministic across
// rounds (RoundRobin and FixedPermutation), and FinalStats.Moves reflects
// the last collected round.
func RunScheduledContext(ctx context.Context, s *game.State, cfg Config, schedule Schedule, rng *rand.Rand) (Result, error) {
	return runEngine(ctx, s, cfg, schedule, rng, nil)
}
