package dynamics

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bestresponse"
	"repro/internal/game"
	"repro/internal/gen"
)

// newMaxGreedyResponder returns the single-move "better response" for
// MAXNCG — the dynamics variant whose divergence the paper cites from
// Kawald–Lenzner (§2).
func newMaxGreedyResponder() Responder {
	return bestresponse.NewEvaluator().MaxGreedyResponse
}

func TestScheduleStrings(t *testing.T) {
	if RoundRobin.String() != "round-robin" ||
		FixedPermutation.String() != "fixed-permutation" ||
		RandomEachRound.String() != "random-each-round" ||
		Schedule(9).String() != "unknown" {
		t.Fatal("schedule names")
	}
}

func TestRunScheduledRoundRobinDelegates(t *testing.T) {
	s1 := game.FromGraphLowOwners(gen.Path(12))
	s2 := game.FromGraphLowOwners(gen.Path(12))
	cfg := DefaultConfig(game.Max, 1, 3)
	a := Run(s1, cfg)
	b, _ := RunScheduledContext(context.Background(), s2, cfg, RoundRobin, nil)
	if a.Status != b.Status || a.Rounds != b.Rounds ||
		a.Final.Fingerprint() != b.Final.Fingerprint() {
		t.Fatal("RoundRobin schedule deviates from Run")
	}
}

func TestRunScheduledPermutationsConverge(t *testing.T) {
	for _, sched := range []Schedule{FixedPermutation, RandomEachRound} {
		rng := rand.New(rand.NewSource(9))
		s := game.FromGraphRandomOwners(gen.RandomTree(15, rng), rng)
		cfg := DefaultConfig(game.Max, 1, 3)
		res, _ := RunScheduledContext(context.Background(), s, cfg, sched, rng)
		if res.Status != Converged {
			t.Fatalf("%v: status=%v", sched, res.Status)
		}
		if !IsLKE(res.Final, cfg) {
			t.Fatalf("%v: final state not an LKE", sched)
		}
	}
}

func TestRunScheduledNeedsRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("permutation schedule without RNG did not panic")
		}
	}()
	RunScheduledContext(context.Background(), game.NewState(3), DefaultConfig(game.Max, 1, 2), FixedPermutation, nil) //nolint:errcheck
}

func TestBetterResponseDynamicsConverges(t *testing.T) {
	// Single-move better responses also settle on trees; the equilibrium
	// is "single-move stable" which the greedy audit confirms.
	rng := rand.New(rand.NewSource(10))
	s := game.FromGraphRandomOwners(gen.RandomTree(20, rng), rng)
	cfg := DefaultConfig(game.Max, 1, 3)
	cfg.Responder = newMaxGreedyResponder()
	res := Run(s, cfg)
	if res.Status != Converged {
		t.Fatalf("better-response dynamics status=%v", res.Status)
	}
	if FirstDeviator(res.Final, cfg) != -1 {
		t.Fatal("single-move deviator remains after convergence")
	}
}

func TestBetterVsBestQuality(t *testing.T) {
	// Best-response equilibria are also single-move stable; the converse
	// can fail. Check the containment empirically: a best-response
	// equilibrium passes the greedy audit.
	rng := rand.New(rand.NewSource(11))
	s := game.FromGraphRandomOwners(gen.RandomTree(18, rng), rng)
	best := DefaultConfig(game.Max, 2, 3)
	res := Run(s, best)
	if res.Status != Converged {
		t.Skip("no convergence at this seed")
	}
	greedyCfg := best
	greedyCfg.Responder = newMaxGreedyResponder()
	if FirstDeviator(res.Final, greedyCfg) != -1 {
		t.Fatal("best-response equilibrium fails the single-move audit")
	}
}
