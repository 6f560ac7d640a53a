// Package cellbench is the cell hot-path performance artifact: with
// BENCH_OUT set, TestBenchCell runs the best-response and swap
// neighborhood benchmarks programmatically and writes their ns/op and
// allocs/op as JSON (committed as BENCH_cell.json at the repo root), so
// the hot path's allocation trajectory is tracked — and gated — from
// commit to commit.
package cellbench

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bestresponse"
	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/gen"
	"repro/internal/ncgio"
	"repro/internal/swap"
)

// cellBench is one benchmark's measurement. Allocs/op is the regression
// gate (CI fails when it grows past the committed baseline); ns/op is
// informational — CI machines are too noisy to gate on time. The
// RunToConvergence rows additionally carry the run shape: player count,
// rounds to convergence, and responder evaluations per round, whose
// strictly-below-players property CI asserts (the event-driven engine's
// contract that rounds cost what actually changed). The two exact-MAX
// rows also carry what the §5.3 scan did per responder call, from the
// run's dynamics.Result.Scan: dominating-set solves per call, and
// the share of levels whose solve the carried lower bound made
// unnecessary. Those are counts — they repeat exactly — so CI gates them
// tightly; the paper-tail row carries its scan's totals, which CI pins
// exactly.
type cellBench struct {
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	Players       int     `json:"players,omitempty"`
	Rounds        int     `json:"rounds,omitempty"`
	EvalsPerRound float64 `json:"evals_per_round,omitempty"`
	SolvesPerCall float64 `json:"solves_per_call,omitempty"`
	SkippedShare  float64 `json:"skipped_share,omitempty"`
	// Cells is set on the sweep row, whose op is one cell of that many.
	Cells int `json:"cells,omitempty"`
	// Scan is set on the paper-tail row: what its run's scan did.
	Scan *scanCounts `json:"scan,omitempty"`
	// Counts is set on the sweep job's replay rows (replay_test.go): what
	// one op of the row did, which repeats exactly and CI pins.
	Counts map[string]int64 `json:"counts,omitempty"`
	// PartsShare is set on the sweep row when its replay rows ran beside
	// it: factory + respond + engine + encode over the whole row.
	PartsShare float64 `json:"parts_share,omitempty"`
	// CalibNs is bench/calib.go's fixed kernel, timed just before and
	// just after the row (the mean of the two): the box's speed while the
	// row ran.
	CalibNs float64 `json:"calib_ns"`
}

// scanCounts is the part of a run's scan counts a row reports beside its
// time — its responder calls (Result.Evaluations) and the Result.Scan
// totals: the quality of the run's answers (a budget-hit solve may cost a
// response its certificate) next to the work that bought them.
type scanCounts struct {
	Calls           int64 `json:"calls"`
	Solves          int64 `json:"solves"`
	Nodes           int64 `json:"nodes"`
	BudgetExhausted int64 `json:"budget_exhausted"`
}

// benchmark is testing.Benchmark with the calibration kernel timed
// beside it, before and after.
func benchmark(f func(b *testing.B)) (testing.BenchmarkResult, float64) {
	before := calibNs()
	r := testing.Benchmark(f)
	return r, (before + calibNs()) / 2
}

// measured is the row of a benchmark that reports nothing but its cost.
func measured(r testing.BenchmarkResult, calib float64) cellBench {
	return cellBench{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		CalibNs:     calib,
	}
}

// benchState mirrors the fixture of the per-package benchmarks: a random
// tree with randomly assigned edge owners, seed 1.
func benchState(n int) *game.State {
	rng := rand.New(rand.NewSource(1))
	return game.FromGraphRandomOwners(gen.RandomTree(n, rng), rng)
}

// gnpState seeds the convergence benchmarks: a connected G(n,p) with
// random owners is dense enough to be far from equilibrium (random trees
// are already stable for the benchmark α), so the runs make real moves.
func gnpState(n int, p float64) *game.State {
	rng := rand.New(rand.NewSource(1))
	g, err := gen.GNPConnected(n, p, rng, 50)
	if err != nil {
		panic(err)
	}
	return game.FromGraphRandomOwners(g, rng)
}

// TestBenchCell writes BENCH_cell.json when BENCH_OUT names the output
// path; without it the test is a no-op skip so the regular suite never
// pays for the measurement. The cases mirror the Benchmark functions in
// internal/bestresponse and internal/swap one for one. BENCH_ROWS, a
// comma-separated list of row names, measures only those rows (ab.sh's
// pairs); the file then holds just them and calib_ns.
func TestBenchCell(t *testing.T) {
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		t.Skip("set BENCH_OUT=<path> to measure and write BENCH_cell.json")
	}
	keep := func(string) bool { return true }
	if list := os.Getenv("BENCH_ROWS"); list != "" {
		rows := strings.Split(list, ",")
		keep = func(name string) bool { return slices.Contains(rows, name) }
	}
	calib := calibNs()

	s100 := benchState(100)
	s60 := benchState(60)
	sumStrategy := []int{1, 2}
	cases := []struct {
		name string
		fn   func(i int)
	}{
		{"MaxBestResponseLocal", func(i int) { bestresponse.MaxBestResponse(s100, i%100, 3, 2) }},
		{"MaxBestResponseFullKnowledge", func(i int) { bestresponse.MaxBestResponse(s100, i%100, 1000, 2) }},
		{"MaxGreedyResponse", func(i int) { bestresponse.MaxGreedyResponse(s100, i%100, 3, 2) }},
		{"SumDelta", func(i int) { bestresponse.SumDelta(s100, 0, 3, 2, sumStrategy) }},
		{"SumGreedyResponse", func(i int) { bestresponse.SumGreedyResponse(s60, i%60, 2, 2) }},
		{"BestSwapSum", func(i int) { swap.BestSwap(s100, i%100, 3, swap.SumDist) }},
		{"BestSwapMax", func(i int) { swap.BestSwap(s100, i%100, 3, swap.MaxEcc) }},
	}

	results := make(map[string]cellBench, len(cases))
	for _, c := range cases {
		if !keep(c.name) {
			continue
		}
		r, calib := benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.fn(i)
			}
		})
		results[c.name] = measured(r, calib)
		t.Logf("%s: %.0f ns/op, %d allocs/op, %d B/op",
			c.name, results[c.name].NsPerOp, results[c.name].AllocsPerOp, results[c.name].BytesPerOp)
	}

	for name, row := range convergenceRows(t, keep) {
		results[name] = row
	}
	for name, row := range statsPassRows(keep) {
		results[name] = row
	}
	if keep("SweepJobMaxLocal") {
		results["SweepJobMaxLocal"] = sweepJobRow(t)
	}
	if keep("PaperTailTree80") {
		results["PaperTailTree80"] = paperTailRow(t)
	}
	for name, row := range cellLineRows(t, keep) {
		results[name] = row
	}
	for name, row := range replayRows(t, keep) {
		results[name] = row
	}
	if whole, ok := results["SweepJobMaxLocal"]; ok {
		parts := 0.0
		for _, p := range []string{"factory", "respond", "engine", "encode"} {
			parts += results["SweepJobMaxLocal/"+p].NsPerOp
		}
		if parts > 0 {
			whole.PartsShare = parts / whole.NsPerOp
			results["SweepJobMaxLocal"] = whole
			t.Logf("SweepJobMaxLocal: factory+respond+engine+encode = %.3f of the row", whole.PartsShare)
		}
	}

	payload := struct {
		Benchmarks map[string]cellBench `json:"benchmarks"`
		// CalibNs is bench/calib.go's fixed kernel, timed as this run
		// began: the box's speed, which no change to the repository moves.
		CalibNs     float64 `json:"calib_ns"`
		GeneratedAt string  `json:"generated_at"`
	}{Benchmarks: results, CalibNs: calib, GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// convergenceRows measures full dynamics runs to convergence for
// representative (α, k) cells — the end-to-end number the event-driven
// engine exists to improve. Each row records the run shape (players,
// rounds, responder evaluations per round) alongside the usual
// measurements.
func convergenceRows(t *testing.T, keep func(string) bool) map[string]cellBench {
	t.Helper()
	cases := []struct {
		name    string
		n       int
		p       float64
		variant game.Variant
		alpha   float64
		k       int
		dialect string // "" best-response, "swap", "large-neighborhood"
	}{
		{name: "RunToConvergenceMaxLocal", n: 100, p: 0.06, variant: game.Max, alpha: 2, k: 3},
		{name: "RunToConvergenceMaxFull", n: 100, p: 0.06, variant: game.Max, alpha: 2, k: 1000},
		{name: "RunToConvergenceSum", n: 60, p: 0.2, variant: game.Sum, alpha: 2, k: 2},
		{name: "RunToConvergenceSwap", n: 100, p: 0.06, variant: game.Sum, alpha: 1, k: 1000, dialect: "swap"},
		{name: "RunToConvergenceLargeNbr", n: 60, p: 0.2, variant: game.Sum, alpha: 2, k: 2, dialect: "large-neighborhood"},
	}
	rows := make(map[string]cellBench, len(cases))
	for _, c := range cases {
		if !keep(c.name) {
			continue
		}
		proto := gnpState(c.n, c.p)
		cfg := dynamics.DefaultConfig(c.variant, c.alpha, c.k)
		switch c.dialect {
		case "swap":
			cfg.Responder = dynamics.SwapResponder(c.variant)
			cfg.NewResponder = nil
		case "large-neighborhood":
			cfg.NewResponder = func() dynamics.Responder { return dynamics.NewLargeNeighborhoodResponder(c.variant) }
		}
		probe := dynamics.Run(proto.Clone(), cfg)
		if probe.Status != dynamics.Converged {
			t.Fatalf("%s: dynamics did not converge (%v after %d rounds)", c.name, probe.Status, probe.Rounds)
		}
		r, calib := benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := proto.Clone()
				b.StartTimer()
				dynamics.Run(s, cfg)
			}
		})
		row := measured(r, calib)
		row.Players, row.Rounds = c.n, probe.Rounds
		row.EvalsPerRound = float64(probe.Evaluations) / float64(probe.Rounds)
		if c.variant == game.Max && c.dialect == "" {
			st := probe.Scan
			row.SolvesPerCall = float64(st.Solves) / float64(probe.Evaluations)
			row.SkippedShare = float64(st.Skipped) / float64(st.Solves+st.Skipped)
			t.Logf("%s: %+v", c.name, st)
		}
		if row.EvalsPerRound >= float64(c.n) {
			t.Fatalf("%s: %.1f evaluations per round is not below n=%d — dirty-set skipping is broken",
				c.name, row.EvalsPerRound, c.n)
		}
		rows[c.name] = row
		t.Logf("%s: %.0f ns/op, %d allocs/op, rounds=%d evals=%d",
			c.name, row.NsPerOp, row.AllocsPerOp, probe.Rounds, probe.Evaluations)
	}
	return rows
}

// paperTailRow runs one cell of the paper's tail to convergence under the
// exact MAX responder: a random tree on 80 players with random owners,
// seed 3 (as `ncg-sim -graph tree -n 80 -seed 3` builds it), α = 0.05,
// k = 10. Of the timed cells of ROADMAP direction 3(a)'s class (trees and
// ER(n, 0.1), n = 66–80, α ∈ {0.025, 0.05, 0.1}, k ∈ {10, 15, 30, 1000}),
// it is the heaviest whose run takes at most 10 s on a 2-core box: 5.7 M
// search nodes, none of its solves out of budget. One op is one run, on
// the fresh responder DefaultConfig gives every run; the row reports that
// run's scan counts beside its time.
func paperTailRow(t *testing.T) cellBench {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	proto := game.FromGraphRandomOwners(gen.RandomTree(80, rng), rng)
	cfg := dynamics.DefaultConfig(game.Max, 0.05, 10)
	var res dynamics.Result
	r, calib := benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := proto.Clone()
			b.StartTimer()
			res = dynamics.Run(s, cfg)
		}
	})
	if res.Status != dynamics.Converged {
		t.Fatalf("PaperTailTree80: dynamics did not converge (%v)", res.Status)
	}
	st := res.Scan
	row := measured(r, calib)
	row.Scan = &scanCounts{Calls: int64(res.Evaluations), Solves: st.Solves, Nodes: st.Nodes, BudgetExhausted: st.BudgetExhausted}
	t.Logf("PaperTailTree80: %.0f ns/op, %d allocs/op, %d calls, %+v", row.NsPerOp, row.AllocsPerOp, res.Evaluations, st)
	return row
}

// statsPassRows times the engine's statistics pass alone, through its
// public door: a run whose responder never moves is one quiet round and
// one collect. G(100, 0.06) is the benchmark's cell shape, where the pass
// is a handful of levels; a 1000-vertex path is the other side of the
// trade, one level per hop of a diameter-999 network, reported so the cost
// is on record and gated only on allocations.
func statsPassRows(keep func(string) bool) map[string]cellBench {
	still := func(*game.State, int, int, float64) bestresponse.Response {
		return bestresponse.Response{}
	}
	rng := rand.New(rand.NewSource(1))
	protos := map[string]*game.State{
		"Gnp100":   gnpState(100, 0.06),
		"Path1000": game.FromGraphRandomOwners(gen.Path(1000), rng),
	}
	rows := map[string]cellBench{}
	for shape, proto := range protos {
		for _, variant := range []game.Variant{game.Max, game.Sum} {
			name := "CollectMax" + shape
			if variant == game.Sum {
				name = "CollectSum" + shape
			}
			if !keep(name) {
				continue
			}
			cfg := dynamics.Config{Variant: variant, Alpha: 2, K: 3, Responder: still}
			r, calib := benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dynamics.Run(proto, cfg)
				}
			})
			rows[name] = measured(r, calib)
		}
	}
	return rows
}

// cellLineRows measures ncgio's line codec on the two line shapes the
// front-door benchmark's daemons handle, one row per shape and direction
// rather than one aggregate: the converged cell (α = 2, k = 3, seed 1) of
// the solo-local and cluster3 jobs' G(100, 0.06) family, which ends near a
// tree (some 100 arcs, a 1.2 kB line), and of serve-small's 16-player
// trees (15 arcs, 450 bytes). Encode is what a computed
// cell pays once; Decode (rebuilding the game.State) what a lease receiver
// and a summary pay; Validate what resume, adoption, a replica holder and a
// disk-cache hit pay for every line they keep as bytes — it allocates
// nothing, and CI holds it to ≤ 2.
func cellLineRows(t *testing.T, keep func(string) bool) map[string]cellBench {
	t.Helper()
	cell := []dynamics.Cell{{Alpha: 2, K: 3, Seed: 1}}
	cfg := dynamics.DefaultConfig(game.Max, 0, 0)
	rows := map[string]cellBench{}
	for shape, factory := range map[string]dynamics.Factory{
		"Gnp100": dynamics.ERFactory(100, 0.06),
		"Tree16": dynamics.TreeFactory(16),
	} {
		r := dynamics.Sweep(cell, cfg, factory, 1)[0]
		line, err := ncgio.MarshalCellResult(r)
		if err != nil {
			t.Fatal(err)
		}
		for op, fn := range map[string]func() error{
			"Encode":   func() error { _, err := ncgio.MarshalCellResult(r); return err },
			"Decode":   func() error { _, err := ncgio.UnmarshalCellResult(line); return err },
			"Validate": func() error { _, err := ncgio.UnmarshalCell(line); return err },
		} {
			if !keep("CellLine" + op + shape) {
				continue
			}
			br, calib := benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := fn(); err != nil {
						b.Fatal(err)
					}
				}
			})
			row := measured(br, calib)
			rows["CellLine"+op+shape] = row
			t.Logf("CellLine%s%s: %d-byte line, %.0f ns/op, %d allocs/op", op, shape, len(line), row.NsPerOp, row.AllocsPerOp)
		}
	}
	return rows
}

// sweepJobCells is the front-door benchmark's solo-local job: G(100,
// 0.06), α ∈ {0.5, 1, 2, 3, 5, 8}, k ∈ {2, 3}, 10 seeds, exact MAX
// responder.
var sweepJobCells = dynamics.Grid([]float64{0.5, 1, 2, 3, 5, 8}, []int{2, 3}, 10)

// BenchmarkSweepJobMaxLocal runs that job the way the daemon's runner
// does, minus the daemon — dynamics.SweepContext on one worker, every
// result encoded as its checkpoint line — so one op is factory,
// responder, dirty-set searches, statistics pass and codec for 120
// cells, without the 150 ms follow tick in front of them. It is the
// profile recipe behind README's "where a local cell's time goes":
//
//	go test ./internal/cellbench -run '^$' -bench SweepJobMaxLocal -benchtime 30x -cpuprofile cpu.out
func BenchmarkSweepJobMaxLocal(b *testing.B) {
	cfg := dynamics.DefaultConfig(game.Max, 0, 0)
	opt := dynamics.SweepOptions{
		Workers:        1,
		DiscardResults: true,
		OnResult: func(_ int, r dynamics.CellResult, _ bool) error {
			_, err := ncgio.MarshalCellResult(r)
			return err
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dynamics.SweepContext(context.Background(), sweepJobCells, cfg, dynamics.ERFactory(100, 0.06), int64(i), opt); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepJobRow reports BenchmarkSweepJobMaxLocal per cell.
func sweepJobRow(t *testing.T) cellBench {
	r, calib := benchmark(BenchmarkSweepJobMaxLocal)
	row := perCell(r, calib)
	t.Logf("SweepJobMaxLocal: %.0f ns/cell, %d allocs/cell over %d jobs", row.NsPerOp, row.AllocsPerOp, r.N)
	return row
}

// perCell is the row of a benchmark whose op is the sweep job's cells.
func perCell(r testing.BenchmarkResult, calib float64) cellBench {
	per := int64(r.N) * int64(len(sweepJobCells))
	return cellBench{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(per),
		AllocsPerOp: int64(r.MemAllocs) / per,
		BytesPerOp:  int64(r.MemBytes) / per,
		Cells:       len(sweepJobCells),
		CalibNs:     calib,
	}
}
