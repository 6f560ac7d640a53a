package dynamics

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bestresponse"
	"repro/internal/game"
)

// randomState builds a random profile: a spanning-tree-ish buy pattern
// plus extra arcs, including occasional redundant (bidirectional) buys.
func randomState(n int, rng *rand.Rand) *game.State {
	s := game.NewState(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		s.Buy(perm[i], perm[rng.Intn(i)])
	}
	for i := 0; i < n/2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			s.Buy(u, v)
		}
	}
	return s
}

// assertSameResult compares everything a checkpoint or trajectory could
// observe. Evaluations and Scan are intentionally excluded: they measure
// skipped work, the one permitted difference.
func assertSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Status != want.Status || got.Rounds != want.Rounds || got.TotalMoves != want.TotalMoves {
		t.Fatalf("%s: (status,rounds,moves)=(%v,%d,%d), want (%v,%d,%d)",
			label, got.Status, got.Rounds, got.TotalMoves, want.Status, want.Rounds, want.TotalMoves)
	}
	if !reflect.DeepEqual(got.PerRound, want.PerRound) {
		t.Fatalf("%s: PerRound diverges:\n got %+v\nwant %+v", label, got.PerRound, want.PerRound)
	}
	if got.FinalStats != want.FinalStats {
		t.Fatalf("%s: FinalStats diverges:\n got %+v\nwant %+v", label, got.FinalStats, want.FinalStats)
	}
	if gf, wf := got.Final.Fingerprint(), want.Final.Fingerprint(); gf != wf {
		t.Fatalf("%s: final fingerprint %x, want %x", label, gf, wf)
	}
	for u := 0; u < got.Final.N(); u++ {
		if !equalInts(got.Final.Strategy(u), want.Final.Strategy(u)) {
			t.Fatalf("%s: player %d final strategy %v, want %v",
				label, u, got.Final.Strategy(u), want.Final.Strategy(u))
		}
	}
}

// TestEngineMatchesReference is the core differential test: the
// event-driven engine must reproduce the naive executable spec
// byte-for-byte across random games, both variants, all three schedules,
// and radii from tight to full knowledge — including the per-round
// statistics, which also pins the pooled collector against the one-shot
// reference collect.
func TestEngineMatchesReference(t *testing.T) {
	variants := []game.Variant{game.Max, game.Sum}
	schedules := []Schedule{RoundRobin, FixedPermutation, RandomEachRound}
	ks := []int{1, 2, 3, 1000} // 1000 = full knowledge on any test graph
	rng := rand.New(rand.NewSource(99))
	trial := 0
	for _, variant := range variants {
		for _, schedule := range schedules {
			for _, k := range ks {
				n := 6 + rng.Intn(20)
				seed := int64(cellSeed(int64(trial), Cell{Alpha: float64(k), K: k, Seed: int64(n)}))
				gen := rand.New(rand.NewSource(seed))
				base := randomState(n, gen)
				alpha := []float64{0.5, 2, 8}[trial%3]
				cfg := DefaultConfig(variant, alpha, k)
				cfg.MaxRounds = 40
				cfg.CycleCheckAfter = 5
				cfg.CollectPerRound = true

				want := runReference(base.Clone(), cfg, schedule, rand.New(rand.NewSource(seed)))
				got, err := RunScheduledContext(context.Background(), base.Clone(), cfg, schedule, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("trial %d: unexpected error %v", trial, err)
				}
				label := variant.String() + "/" + schedule.String()
				assertSameResult(t, label, got, want)
				if got.Evaluations > want.Evaluations {
					t.Fatalf("%s: event-driven made %d evaluations, naive made %d",
						label, got.Evaluations, want.Evaluations)
				}
				// The engine's calls are some of the reference's, on the same
				// states, and a response's counts depend on its inputs only.
				if g, w := got.Scan, want.Scan; g.Levels > w.Levels || g.Solves > w.Solves || g.Nodes > w.Nodes {
					t.Fatalf("%s: event-driven scans %+v exceed the naive loop's %+v", label, g, w)
				}
				trial++
			}
		}
	}
}

// TestEngineSkipsWork asserts the tentpole actually pays off: on a
// converging round-robin run, the event-driven engine must evaluate
// strictly fewer players than rounds×n — in particular the final quiet
// round plus the settling tail must be cheaper than full scans.
func TestEngineSkipsWork(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomState(40, rng)
	cfg := DefaultConfig(game.Max, 2, 3)
	res := Run(s, cfg)
	if res.Status != Converged {
		t.Fatalf("run did not converge: %v", res.Status)
	}
	naive := res.Rounds * s.N()
	if res.Evaluations >= naive {
		t.Fatalf("event-driven engine evaluated %d times, naive bound is %d", res.Evaluations, naive)
	}
	// The naive loop makes the full count and lands on the same result.
	rng = rand.New(rand.NewSource(5))
	s2 := randomState(40, rng)
	res2 := runReference(s2, cfg, RoundRobin, nil)
	if res2.Evaluations != res2.Rounds*s2.N() {
		t.Fatalf("naive loop evaluated %d times over %d rounds of %d players",
			res2.Evaluations, res2.Rounds, s2.N())
	}
	assertSameResult(t, "engine-vs-naive", res, res2)
}

// TestScheduledContextCancellation pins the satellite fix: RunScheduled
// historically ignored cancellation entirely; the unified engine must
// honor it identically to RunContext for every schedule.
func TestScheduledContextCancellation(t *testing.T) {
	for _, schedule := range []Schedule{RoundRobin, FixedPermutation, RandomEachRound} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rng := rand.New(rand.NewSource(3))
		s := randomState(12, rng)
		res, err := RunScheduledContext(ctx, s, DefaultConfig(game.Max, 2, 2), schedule, rand.New(rand.NewSource(1)))
		if err != context.Canceled {
			t.Fatalf("%v: err = %v, want context.Canceled", schedule, err)
		}
		if res.Rounds != 0 || res.TotalMoves != 0 {
			t.Fatalf("%v: pre-cancelled run reported %d rounds, %d moves", schedule, res.Rounds, res.TotalMoves)
		}
	}

	// Mid-run: cancel from inside the responder after a few calls; the
	// engine must stop at the next round boundary with a partial result.
	calls := 0
	ctx, cancel := context.WithCancel(context.Background())
	cfg := DefaultConfig(game.Max, 2, 2)
	inner := cfg.ResolveResponder()
	cfg.Responder = func(s *game.State, u, k int, alpha float64) bestresponse.Response {
		calls++
		if calls == 5 {
			cancel()
		}
		return inner(s, u, k, alpha)
	}
	rng := rand.New(rand.NewSource(8))
	s := randomState(20, rng)
	res, err := RunScheduledContext(ctx, s, cfg, FixedPermutation, rand.New(rand.NewSource(2)))
	if err != context.Canceled {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	if res.Rounds == 0 {
		t.Fatal("mid-run cancel: expected at least one completed round before the boundary check")
	}
}

// TestScheduledFinalStatsBackfill pins the other satellite fix: the old
// RunScheduled never backfilled FinalStats.Moves from the last collected
// round. With the unified engine it must, for every schedule.
func TestScheduledFinalStatsBackfill(t *testing.T) {
	for _, schedule := range []Schedule{RoundRobin, FixedPermutation, RandomEachRound} {
		rng := rand.New(rand.NewSource(11))
		s := randomState(15, rng)
		cfg := DefaultConfig(game.Max, 1, 2)
		cfg.MaxRounds = 1 // stop while moves are still happening
		cfg.CollectPerRound = true
		res, _ := RunScheduledContext(context.Background(), s, cfg, schedule, rand.New(rand.NewSource(4)))
		if res.Status != RoundLimit || len(res.PerRound) != 1 {
			t.Fatalf("%v: status %v with %d collected rounds", schedule, res.Status, len(res.PerRound))
		}
		if res.PerRound[0].Moves == 0 {
			t.Fatalf("%v: round 1 made no moves; test needs an active round", schedule)
		}
		if res.FinalStats.Moves != res.PerRound[0].Moves {
			t.Fatalf("%v: FinalStats.Moves = %d, last round made %d",
				schedule, res.FinalStats.Moves, res.PerRound[0].Moves)
		}
	}
}

// TestTracedMatchesEngine checks RunTraced still reports like Run and its
// log replays to the same final state.
func TestTracedMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := randomState(18, rng)
	cfg := DefaultConfig(game.Sum, 3, 2)
	cfg.CollectPerRound = true
	want := Run(base.Clone(), cfg)
	start := base.Clone()
	got, moves := RunTraced(base.Clone(), cfg)
	assertSameResult(t, "traced", got, want)
	if len(moves) != got.TotalMoves {
		t.Fatalf("trace recorded %d moves, result reports %d", len(moves), got.TotalMoves)
	}
	replayed, err := Replay(start, moves)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replayed.Fingerprint() != got.Final.Fingerprint() {
		t.Fatal("replayed state diverges from traced final state")
	}
}
