package dynamics

import (
	"math/rand"

	"repro/internal/game"
	"repro/internal/view"
)

// This file is the executable specification of the round loop: the naive
// dynamics — every player evaluated every round, statistics recomputed
// from the public one-shot APIs — written with no regard for performance.
// runEngine must produce byte-identical Results (Evaluations and Scan
// excepted); differential_test.go enforces that over randomized games,
// variants, and schedules. Change the spec and the engine together, or not
// at all.

// runReference executes cfg under the given schedule exactly as the
// pre-event-driven loops did. rng may be nil for RoundRobin.
func runReference(s *game.State, cfg Config, schedule Schedule, rng *rand.Rand) Result {
	cfg.Responder = cfg.ResolveResponder()
	if cfg.Responder == nil {
		panic("dynamics: nil responder")
	}
	if schedule != RoundRobin && rng == nil {
		panic("dynamics: permutation schedules need an RNG")
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 200
	}
	res := Result{Final: s}
	n := s.N()
	seen := map[uint64]int{}
	var order []int
	if schedule != RoundRobin {
		order = rng.Perm(n)
	}
	for round := 1; round <= cfg.MaxRounds; round++ {
		if schedule == RandomEachRound {
			order = rng.Perm(n)
		}
		moves, evals := 0, 0
		for idx := 0; idx < n; idx++ {
			u := idx
			if order != nil {
				u = order[idx]
			}
			evals++
			r := cfg.Responder(s, u, cfg.K, cfg.Alpha)
			res.Scan.Add(r.Scan)
			if r.Improving {
				s.SetStrategy(u, r.Strategy)
				moves++
			}
		}
		res.Rounds = round
		res.TotalMoves += moves
		res.Evaluations += evals
		if cfg.CollectPerRound {
			res.PerRound = append(res.PerRound, referenceCollect(s, cfg, round, moves))
		}
		if moves == 0 {
			res.Status = Converged
			break
		}
		if schedule != RandomEachRound {
			fp := s.Fingerprint()
			if round > cfg.CycleCheckAfter {
				if _, dup := seen[fp]; dup {
					res.Status = Cycled
					break
				}
			}
			seen[fp] = round
		}
		if round == cfg.MaxRounds {
			res.Status = RoundLimit
		}
	}
	res.FinalStats = referenceCollect(s, cfg, res.Rounds, 0)
	if len(res.PerRound) > 0 {
		res.FinalStats.Moves = res.PerRound[len(res.PerRound)-1].Moves
	}
	return res
}

// referenceCollect recomputes every round statistic from the public
// one-shot APIs — three independent all-pairs passes for social cost,
// quality, and unfairness, one more for the diameter, and a bounded BFS
// per player for the view sizes. The engine's collect derives all of them
// from a single graph.PowerStats pass; the differential tests pin the
// floats as identical (same operations, same order), not merely close.
func referenceCollect(s *game.State, cfg Config, round, moves int) RoundStats {
	g := s.Graph()
	n := s.N()
	st := RoundStats{
		Round:      round,
		Moves:      moves,
		Diameter:   g.Diameter(),
		SocialCost: game.SocialCost(s, cfg.Variant, cfg.Alpha),
		MaxDegree:  g.MaxDegree(),
		AvgDegree:  g.AverageDegree(),
		MinBought:  s.MinBought(),
		MaxBought:  s.MaxBought(),
		Quality:    game.Quality(s, cfg.Variant, cfg.Alpha),
		Unfairness: game.Unfairness(s, cfg.Variant, cfg.Alpha),
	}
	if n > 0 {
		st.AvgBought = float64(s.TotalBought()) / float64(n)
		minV, maxV, sumV := n+1, 0, 0
		for u := 0; u < n; u++ {
			sz := view.BallSize(g, u, cfg.K)
			if sz < minV {
				minV = sz
			}
			if sz > maxV {
				maxV = sz
			}
			sumV += sz
		}
		st.MinViewSize = minV
		st.MaxViewSize = maxV
		st.AvgViewSize = float64(sumV) / float64(n)
	}
	return st
}
