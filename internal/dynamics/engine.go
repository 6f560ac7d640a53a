package dynamics

import (
	"context"
	"math/rand"
	"slices"

	"repro/internal/bestresponse"
	"repro/internal/game"
	"repro/internal/graph"
)

// Status describes how a dynamics run ended.
type Status int

const (
	// Converged: a full round completed with no strategy change.
	Converged Status = iota
	// Cycled: the end-of-round profile repeated an earlier round's profile
	// with intervening moves — under a fixed deterministic activation
	// order the dynamics will loop forever (§5.1).
	Cycled
	// RoundLimit: the round budget was exhausted without convergence or a
	// detected cycle.
	RoundLimit
)

// String names the status.
func (st Status) String() string {
	switch st {
	case Converged:
		return "converged"
	case Cycled:
		return "cycled"
	case RoundLimit:
		return "round-limit"
	default:
		return "unknown"
	}
}

// ParseStatus inverts Status.String (used by the ncgio codecs).
func ParseStatus(s string) (Status, bool) {
	switch s {
	case "converged":
		return Converged, true
	case "cycled":
		return Cycled, true
	case "round-limit":
		return RoundLimit, true
	default:
		return 0, false
	}
}

// RoundStats captures the network features the paper collects after each
// round (§5.1: diameter, social cost, degrees, bought edges, view sizes).
type RoundStats struct {
	Round       int
	Moves       int
	Diameter    int
	SocialCost  float64
	MaxDegree   int
	AvgDegree   float64
	MinBought   int
	MaxBought   int
	AvgBought   float64
	MinViewSize int
	MaxViewSize int
	AvgViewSize float64
	Quality     float64
	Unfairness  float64
}

// Result is the outcome of one dynamics run.
type Result struct {
	Status     Status
	Rounds     int
	TotalMoves int
	Final      *game.State
	PerRound   []RoundStats
	// FinalStats repeats the last collected round statistics for
	// convenience (zero value when no round ran).
	FinalStats RoundStats
	// Evaluations counts the responder calls actually made. It is
	// sub-linear in n·Rounds on converging runs (clean players are
	// skipped); the naive loop would report exactly n per round. It is
	// intentionally NOT serialized in checkpoints — results are
	// byte-identical either way, and this field only observes how much
	// work the engine avoided.
	Evaluations int
	// Scan sums the responses' exact MAXNCG scan counts over the run's
	// Evaluations calls (zero under every other responder): solver work,
	// and how many solves ran out of search budget and so may have cost a
	// response its certificate. Like Evaluations, it is not serialized.
	Scan bestresponse.ScanStats
}

// Config parameterizes a dynamics run.
type Config struct {
	Variant   game.Variant
	Alpha     float64
	K         int
	Responder Responder
	// NewResponder, when set, constructs a fresh responder owning its own
	// evaluation scratch. RunContext falls back to it when Responder is
	// nil, and LocalExecutor calls it once per worker so a sweep's
	// responder allocations stay O(workers) rather than O(moves). Both
	// fields must describe the same response rule.
	NewResponder func() Responder
	// MaxRounds bounds the run; cycle detection starts once the round
	// count exceeds CycleCheckAfter (the paper checks after a time
	// threshold; we use rounds as the deterministic analogue).
	MaxRounds       int
	CycleCheckAfter int
	// CollectPerRound enables per-round statistics (one pass over the
	// network's neighbourhood powers per round, graph.PowerStats). The
	// final round is always collected.
	CollectPerRound bool
}

// DefaultConfig mirrors the paper's setup for the given variant. It sets
// NewResponder only, leaving Responder nil: an explicit Responder always
// wins (see ResolveResponder), so callers that assign one after
// DefaultConfig keep their override everywhere, including in per-worker
// executors.
func DefaultConfig(variant game.Variant, alpha float64, k int) Config {
	nr := NewMaxResponder
	if variant == game.Sum {
		nr = NewSumResponder
	}
	return Config{
		Variant:         variant,
		Alpha:           alpha,
		K:               k,
		NewResponder:    nr,
		MaxRounds:       200,
		CycleCheckAfter: 30,
	}
}

// ResolveResponder returns the responder a run will use: the explicit
// Responder field when set, otherwise a fresh instance from NewResponder,
// or nil when neither is configured.
func (cfg Config) ResolveResponder() Responder {
	if cfg.Responder != nil {
		return cfg.Responder
	}
	if cfg.NewResponder != nil {
		return cfg.NewResponder()
	}
	return nil
}

// Run executes round-robin best-response dynamics on state s (§5.1): in
// each round every player, in id order, computes a response according to
// her local view; strictly improving responses are applied immediately.
// The run stops at convergence (a full quiet round), on a detected
// best-response cycle, or at the round budget. s is mutated in place.
func Run(s *game.State, cfg Config) Result {
	res, _ := RunContext(context.Background(), s, cfg)
	return res
}

// RunContext is Run with cancellation, checked between rounds. On
// cancellation it returns the partial result accumulated so far (without
// final statistics) together with ctx.Err(); the rounds already played
// before the cancellation point are identical to an uninterrupted run's.
func RunContext(ctx context.Context, s *game.State, cfg Config) (Result, error) {
	return runEngine(ctx, s, cfg, RoundRobin, nil, nil)
}

// runEngine is the one round loop behind every entry point: it applies
// the schedule's activation order, skips provably-unimprovable players
// via the dirty set (see activation.go), detects cycles where the
// schedule makes repeats conclusive, and collects statistics. rng is
// required by the permutation schedules and ignored by RoundRobin.
// onMove, when non-nil, fires for every improving response BEFORE the
// move is applied (so the state still holds the old strategy) — RunTraced
// builds its move log from it.
func runEngine(ctx context.Context, s *game.State, cfg Config, schedule Schedule, rng *rand.Rand, onMove func(round, u int, r bestresponse.Response)) (Result, error) {
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
	seen := map[uint64]int{} // end-of-round fingerprint → round index
	var order []int
	if schedule != RoundRobin {
		order = rng.Perm(n)
	}
	dirty := newDirtySet(n, cfg.K)
	defer dirty.release()
	ps := graph.GetPowerStats()
	defer graph.PutPowerStats(ps)
	for round := 1; round <= cfg.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if schedule == RandomEachRound {
			order = rng.Perm(n)
		}
		moves, evals := 0, 0
		for idx := 0; idx < n; idx++ {
			u := idx
			if order != nil {
				u = order[idx]
			}
			if dirty.clean(u) {
				continue // response unchanged since last non-improving evaluation
			}
			evals++
			r := cfg.Responder(s, u, cfg.K, cfg.Alpha)
			res.Scan.Add(r.Scan)
			if r.Improving {
				if onMove != nil {
					onMove(round, u, r)
				}
				dirty.apply(s, u, r.Strategy)
				moves++
			} else {
				dirty.settle(u)
			}
		}
		res.Rounds = round
		res.TotalMoves += moves
		res.Evaluations += evals
		if cfg.CollectPerRound {
			res.PerRound = append(res.PerRound, collect(ps, s, cfg, round, moves))
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
	res.FinalStats = collect(ps, s, cfg, res.Rounds, 0)
	if len(res.PerRound) > 0 {
		res.FinalStats.Moves = res.PerRound[len(res.PerRound)-1].Moves
	}
	return res, nil
}

// collect computes the round statistics on the current network, on the
// run's pooled ps. One pass over the neighbourhood powers of the network
// gives every eccentricity (hence the diameter), every distance sum and
// every view size; all player costs are computed ONCE per collect and
// social cost, quality and unfairness derive from that pass. Values are
// bit-identical to the game.SocialCost/Quality/Unfairness chain — same
// operations in the same order — which referenceCollect pins.
func collect(ps *graph.PowerStats, s *game.State, cfg Config, round, moves int) RoundStats {
	g := s.Graph()
	n := s.N()
	st := RoundStats{
		Round:     round,
		Moves:     moves,
		MaxDegree: g.MaxDegree(),
		AvgDegree: g.AverageDegree(),
		MinBought: s.MinBought(),
		MaxBought: s.MaxBought(),
	}
	g.PowerStats(cfg.K, ps)
	if n > 1 {
		st.Diameter = slices.Max(ps.Ecc)
	}
	usage := ps.Ecc
	if cfg.Variant == game.Sum {
		usage = ps.Sum
	}
	// One cost pass feeds social cost, quality, and unfairness. The
	// per-player expression and the summation order match
	// game.AllPlayerCosts/SocialCost exactly, so the floats are identical.
	social := 0.0
	lo, hi := 0.0, 0.0
	for u := 0; u < n; u++ {
		c := cfg.Alpha*float64(s.BoughtCount(u)) + float64(usage[u])
		social += c
		if u == 0 || c < lo {
			lo = c
		}
		if u == 0 || c > hi {
			hi = c
		}
	}
	st.SocialCost = social
	if opt := game.OptimumSocialCost(n, cfg.Variant, cfg.Alpha); opt == 0 {
		st.Quality = 1
	} else {
		st.Quality = social / opt
	}
	switch {
	case n == 0:
		st.Unfairness = 1
	case lo == 0:
		st.Unfairness = game.InfiniteCost
	default:
		st.Unfairness = hi / lo
	}
	if n > 0 {
		st.AvgBought = float64(s.TotalBought()) / float64(n)
		sumV := 0
		for _, sz := range ps.Ball {
			sumV += sz
		}
		st.MinViewSize = slices.Min(ps.Ball)
		st.MaxViewSize = slices.Max(ps.Ball)
		st.AvgViewSize = float64(sumV) / float64(n)
	}
	return st
}

// IsLKE audits whether s is a Local Knowledge Equilibrium for the given
// responder: no player has a strictly improving response. This is exact
// when the responder is exact (MAXNCG), and a "local-move equilibrium"
// audit otherwise.
func IsLKE(s *game.State, cfg Config) bool {
	return FirstDeviator(s, cfg) == -1
}

// FirstDeviator returns the lowest-id player with a strictly improving
// response, or -1 when s is stable.
func FirstDeviator(s *game.State, cfg Config) int {
	cfg.Responder = cfg.ResolveResponder()
	if cfg.Responder == nil {
		panic("dynamics: nil responder")
	}
	for u := 0; u < s.N(); u++ {
		if cfg.Responder(s, u, cfg.K, cfg.Alpha).Improving {
			return u
		}
	}
	return -1
}
