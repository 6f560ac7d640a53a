package cellbench

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/bestresponse"
	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/ncgio"
	"repro/internal/view"
)

// sweepJobRecord is one op of BenchmarkSweepJobMaxLocal (base seed 0) as
// it ran, kept so that its layers can be timed apart: each cell's start
// state, every responder call and every move in the engine's order, and
// the cell results the job encoded.
type sweepJobRecord struct {
	starts  []*game.State
	calls   []replayCall
	moves   []replayMove
	results []dynamics.CellResult
}

// replayCall is one responder call, made once its cell's state had taken
// the first after of the recorded moves; an improving call's move is
// moves[after].
type replayCall struct {
	cell, u, k, after int
	alpha             float64
	improving         bool
}

// replayMove is one applied move.
type replayMove struct {
	cell, u, k int
	strategy   []int
}

// recordSweepJob runs the job once through dynamics.SweepContext, as
// BenchmarkSweepJobMaxLocal does, with a responder that records what the
// engine hands it before answering as the exact MAX responder.
func recordSweepJob(t *testing.T) *sweepJobRecord {
	t.Helper()
	rec := &sweepJobRecord{}
	var last *game.State
	cfg := dynamics.DefaultConfig(game.Max, 0, 0)
	cfg.NewResponder = func() dynamics.Responder {
		respond := dynamics.NewMaxResponder()
		return func(s *game.State, u, k int, alpha float64) bestresponse.Response {
			// The results below keep every cell's state alive, so a new
			// pointer is a new cell.
			if s != last {
				rec.starts = append(rec.starts, s.Clone())
				last = s
			}
			cell := len(rec.starts) - 1
			r := respond(s, u, k, alpha)
			rec.calls = append(rec.calls, replayCall{cell: cell, u: u, k: k, after: len(rec.moves), alpha: alpha, improving: r.Improving})
			if r.Improving {
				rec.moves = append(rec.moves, replayMove{cell: cell, u: u, k: k, strategy: slices.Clone(r.Strategy)})
			}
			return r
		}
	}
	opt := dynamics.SweepOptions{
		Workers: 1,
		OnResult: func(_ int, r dynamics.CellResult, _ bool) error {
			rec.results = append(rec.results, r)
			return nil
		},
	}
	if _, err := dynamics.SweepContext(context.Background(), sweepJobCells, cfg, dynamics.ERFactory(100, 0.06), 0, opt); err != nil {
		t.Fatal(err)
	}
	return rec
}

// replayCalls hands every recorded call to each, in order, on one working
// copy of its cell's start state that the recorded moves are applied to
// between calls, as the engine applies them: the graph a call reads is the
// one it read in the job, and as warm. The copies are not timed.
func (rec *sweepJobRecord) replayCalls(b *testing.B, each func(s *game.State, c replayCall)) {
	var s *game.State
	cell, applied := -1, 0
	for _, c := range rec.calls {
		if c.cell != cell {
			b.StopTimer()
			cell, s, applied = c.cell, rec.starts[c.cell].Clone(), c.after
			b.StartTimer()
		}
		for ; applied < c.after; applied++ {
			s.SetStrategy(rec.moves[applied].u, rec.moves[applied].strategy)
		}
		each(s, c)
	}
}

// replayRows time the layers of one SweepJobMaxLocal op by replaying its
// record, each per cell like the whole row:
//
//   - factory: the 120 start states, as the sweep derives them;
//   - extract: every call's view.Workspace.Extract;
//   - reach: extract, the forced dominators (as the Evaluator's prepare
//     finds them) and one ball BFS from them per call, the BFS the scan
//     runs for its cap-1 levels (here on every call);
//   - respond: every call, whole, on one Evaluator;
//   - dirty: every move's dirty-set search and its application, the
//     search run on every move (the kernel alone);
//   - engine: every cell run through dynamics.RunContext on a responder
//     that hands back the recorded responses;
//   - encode: the 120 checkpoint lines.
//
// extract, reach and respond apply the moves between calls too (the
// engine's SetStrategy, which dirty also times). extract and reach are
// parts of respond; factory, respond, engine and encode are the layers a
// cell is made of. engine is the engine's own work: activation (dirty's
// searches, as the engine decides to run them), the moves, fingerprints
// and the final statistics pass. Each row carries its exact counts.
func replayRows(t *testing.T, keep func(string) bool) map[string]cellBench {
	t.Helper()
	parts := []struct {
		name string
		op   func(b *testing.B, rec *sweepJobRecord) map[string]int64
	}{
		{"factory", replayFactory},
		{"extract", replayExtract},
		{"reach", replayReach},
		{"respond", replayRespond},
		{"dirty", replayDirty},
		{"engine", replayEngine},
		{"encode", replayEncode},
	}
	rows := map[string]cellBench{}
	var rec *sweepJobRecord
	for _, p := range parts {
		name := "SweepJobMaxLocal/" + p.name
		if !keep(name) {
			continue
		}
		if rec == nil {
			rec = recordSweepJob(t)
			t.Logf("SweepJobMaxLocal record: %d cells, %d calls, %d moves",
				len(rec.starts), len(rec.calls), len(rec.moves))
		}
		var counts map[string]int64
		r, calib := benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				counts = p.op(b, rec)
			}
		})
		row := perCell(r, calib)
		row.Counts = counts
		rows[name] = row
		t.Logf("%s: %.0f ns/cell, %d allocs/cell, %v", name, rows[name].NsPerOp, rows[name].AllocsPerOp, counts)
	}
	return rows
}

func replayFactory(_ *testing.B, _ *sweepJobRecord) map[string]int64 {
	factory := dynamics.ERFactory(100, 0.06)
	var edges int64
	for _, c := range sweepJobCells {
		edges += int64(dynamics.CellState(factory, c, 0).Graph().M())
	}
	return map[string]int64{"cells": int64(len(sweepJobCells)), "edges": edges}
}

func replayExtract(b *testing.B, rec *sweepJobRecord) map[string]int64 {
	var ws view.Workspace
	var ball, center int64
	rec.replayCalls(b, func(s *game.State, c replayCall) {
		ws.Extract(s.Graph(), c.u, c.k)
		ball += int64(ws.Size())
		center += int64(len(ws.CenterAdj))
	})
	return map[string]int64{"calls": int64(len(rec.calls)), "ball": ball, "center": center}
}

func replayReach(b *testing.B, rec *sweepJobRecord) map[string]int64 {
	var ws view.Workspace
	var fixed, dist []int32
	var forced, reached, ecc int64
	rec.replayCalls(b, func(s *game.State, c replayCall) {
		ws.Extract(s.Graph(), c.u, c.k)
		fixed = fixed[:0]
		for _, l := range ws.CenterAdj {
			if s.Buys(int(ws.Orig[l]), c.u) {
				fixed = append(fixed, l)
			}
		}
		forced += int64(len(fixed))
		dist = slices.Grow(dist[:0], ws.Size())[:ws.Size()]
		if r := ws.BallEccFrom(fixed, dist); r != graph.Unreachable {
			reached++
			ecc += int64(r)
		}
	})
	return map[string]int64{"calls": int64(len(rec.calls)), "forced": forced, "reached": reached, "ecc": ecc}
}

func replayRespond(b *testing.B, rec *sweepJobRecord) map[string]int64 {
	respond := dynamics.NewMaxResponder()
	var st bestresponse.ScanStats
	var improving int64
	rec.replayCalls(b, func(s *game.State, c replayCall) {
		r := respond(s, c.u, c.k, c.alpha)
		st.Add(r.Scan)
		if r.Improving {
			improving++
		}
	})
	return map[string]int64{
		"calls": int64(len(rec.calls)), "improving": improving, "levels": st.Levels,
		"solves": st.Solves, "skipped": st.Skipped, "nodes": st.Nodes,
	}
}

// replayDirty is the engine's dirtySet.apply over the recorded moves with
// the search made on every move, as if a player were always clean.
func replayDirty(b *testing.B, rec *sweepJobRecord) map[string]int64 {
	scratch := graph.GetScratch(rec.starts[0].N())
	defer graph.PutScratch(scratch)
	var s *game.State
	var srcs []int32
	var dirtied int64
	cell := -1
	for _, m := range rec.moves {
		if m.cell != cell {
			b.StopTimer()
			cell, s = m.cell, rec.starts[m.cell].Clone()
			b.StartTimer()
		}
		srcs = s.StrategyDiff(m.u, m.strategy, append(srcs[:0], int32(m.u)))
		dirtied += int64(len(s.Graph().MultiBFSWithinScratch(srcs, m.k, scratch)))
		s.SetStrategy(m.u, m.strategy)
	}
	return map[string]int64{"moves": int64(len(rec.moves)), "dirtied": dirtied}
}

// replayEngine fails when the engine asks for a call out of the record's
// order: its responses would then not be the ones the job computed.
func replayEngine(b *testing.B, rec *sweepJobRecord) map[string]int64 {
	cfg := dynamics.DefaultConfig(game.Max, 0, 0)
	next, cell := 0, 0
	cfg.Responder = func(_ *game.State, u, k int, _ float64) bestresponse.Response {
		if next == len(rec.calls) || rec.calls[next].cell != cell || rec.calls[next].u != u || rec.calls[next].k != k {
			b.Fatalf("cell %d: the engine asked for player %d at call %d, out of the record's order", cell, u, next)
		}
		c := rec.calls[next]
		next++
		if !c.improving {
			return bestresponse.Response{}
		}
		return bestresponse.Response{Improving: true, Strategy: rec.moves[c.after].strategy}
	}
	var moves, rounds int64
	for i, start := range rec.starts {
		b.StopTimer()
		s := start.Clone()
		b.StartTimer()
		cell, cfg.Alpha, cfg.K = i, sweepJobCells[i].Alpha, sweepJobCells[i].K
		res, err := dynamics.RunContext(context.Background(), s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		moves += int64(res.TotalMoves)
		rounds += int64(res.Rounds)
	}
	if next != len(rec.calls) {
		b.Fatalf("the engine made %d of the record's %d calls", next, len(rec.calls))
	}
	return map[string]int64{"cells": int64(len(rec.starts)), "calls": int64(next), "moves": moves, "rounds": rounds}
}

func replayEncode(b *testing.B, rec *sweepJobRecord) map[string]int64 {
	var bytes int64
	for _, r := range rec.results {
		line, err := ncgio.MarshalCellResult(r)
		if err != nil {
			b.Fatal(err)
		}
		bytes += int64(len(line))
	}
	return map[string]int64{"cells": int64(len(rec.results)), "bytes": bytes}
}

// calibKernelBuf and calibKernel copy bench/calib.go's fixed kernel: a
// xorshift stream scattered into and gathered from a 256 KiB buffer. No
// change to the repository can speed it up, so its time says how fast
// the box ran when the run began.
var calibKernelBuf = make([]uint64, 1<<15)

func calibKernel() uint64 {
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < 120000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (1<<15 - 1)
		calibKernelBuf[j] += x
		acc += calibKernelBuf[(j*31)&(1<<15-1)]
	}
	return acc
}

var calibSink uint64

// calibNs times the kernel as bench/calib.go samples it: the mean of ten
// samples, each the fastest of three back-to-back runs.
func calibNs() float64 {
	total := 0.0
	for range 10 {
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			calibSink += calibKernel()
			if d := time.Since(t0); i == 0 || d < best {
				best = d
			}
		}
		total += float64(best.Nanoseconds())
	}
	return total / 10
}
