package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
	"repro/internal/stats"
)

// runOpts is one invocation's settings.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	tiny    bool // smoke-test scale: same shapes, toy sizes
}

// reads is how many full reads the read phase makes.
func (o runOpts) reads() int {
	if o.tiny {
		return 12
	}
	return 400
}

// value is one emitted metric: name, unit, value, and how many samples
// stand behind it.
type value struct {
	name string
	unit string
	v    float64
	n    int
}

// result is what one run of one workload reports.
type result struct {
	workload  string
	values    []value
	attempted int
	failed    int
	notes     []string
	// self is a traced run's time budget: per span name, total duration
	// minus the part child spans cover.
	self map[string]time.Duration
}

// totalAlloc reads the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// peakRSSMB reads the process's high-water resident set (0 off Linux).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// setUp boots the workload's daemons in a fresh directory and pushes the
// fixed warm-up sweep through the front door. Boot to the warm-up's last
// durable cell is the benchmark's set-up time.
func setUp(w *workload, o runOpts, ops *ops) (*topology, string, phase, error) {
	dir, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return nil, "", phase{}, err
	}
	cpuBefore := cpuSeconds()
	start := time.Now()
	top, err := bootTopology(dir, w.members)
	if err != nil {
		os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
		return nil, "", phase{}, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	p := &pass{jobs: []*jobRun{{js: jobSpec{spec: warmupSpec(o.tiny)}}}}
	runJob(hc, top, ops, nil, p.jobs[0], 0)
	verifyPass(hc, top, ops, p)
	// Timed to the daemon's own finish stamp: the client sees the done
	// trailer up to one 150ms follow poll later, and that lag would put
	// set-up time on a 150ms grid.
	end := p.jobs[0].info.Finished
	if end.IsZero() {
		end = time.Now()
	}
	return top, dir, phase{from: start, to: end, cpu: cpuSeconds() - cpuBefore}, nil
}

func tearDown(top *topology, dir string) {
	top.close()
	os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
}

// runWorkload measures one workload once: the untraced end-to-end pass,
// or with o.trace the traced pass, layer replay and probes.
func runWorkload(w *workload, o runOpts) (*result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	ops := &ops{}
	res := &result{workload: w.name}
	var err error
	if o.trace {
		err = runTraced(w, o, ops, res)
	} else {
		err = runEndToEnd(w, o, ops, res)
	}
	res.attempted, res.failed, res.notes = ops.attempted, ops.failed, ops.notes
	return res, err
}

// runEndToEnd sets up several times (the median is setup_s; the last
// set-up is the one measured against), runs the closed loop for
// o.seconds, then verifies and reads with the clock stopped. Both
// end-to-end times are read at reference speed (calib.go); the wall
// clock as it ran is printed beside them.
func runEndToEnd(w *workload, o runOpts, ops *ops, res *result) error {
	reps := 5
	if o.tiny {
		reps = 1
	}
	cal := startCalibrator()
	defer cal.close()
	var setups, setupsWall []float64
	var top *topology
	var dir string
	for i := 0; i < reps; i++ {
		if top != nil {
			tearDown(top, dir)
		}
		var s phase
		var err error
		if top, dir, s, err = setUp(w, o, ops); err != nil {
			return err
		}
		setups = append(setups, cal.corrected(s))
		setupsWall = append(setupsWall, s.wall())
	}
	defer func() { tearDown(top, dir) }()

	g := gen{seed: o.seed, pass: 1, tiny: o.tiny}
	p := runPass(w, top, g, ops, nil, o.seconds, 0)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	verifyPass(hc, top, ops, p)
	rd := readPhase(hc, top, ops, p, o.reads(), false)
	spotCheck(p, g, ops)
	if w.members > 1 {
		if err := soloCheck(w, o, ops, p); err != nil {
			return err
		}
	}
	var jobMS []float64
	for _, jr := range p.jobs {
		if jr.ok {
			jobMS = append(jobMS, jr.jobMS)
		}
	}
	res.values = []value{
		{"cells_per_s", "cells/s", ratio(float64(p.cells), cal.corrected(p.phase)), p.cells},
		{"setup_s", "s", median(setups), len(setups)},
		// The same two as the wall clock ran, and the slowdown taken out.
		{"wall.cells_per_s", "cells/s", p.cellsPerS(), p.cells},
		{"wall.setup_s", "s", median(setupsWall), len(setupsWall)},
		{"wall.slowdown", "ratio", cal.slowdown(p.phase.from, p.phase.to), p.cells},
		// Not in BENCHMARK.json's end_to_end (see README, "Demoted"):
		// printed so -aa keeps showing why.
		{"sweepd.job_p50_ms", "ms", median(jobMS), len(jobMS)},
		{"sweepd.job_p95_ms", "ms", quantile(jobMS, 0.95), len(jobMS)},
		{"sweepd.read_p50_ms", "ms", median(rd.fullMS), len(rd.fullMS)},
	}
	return nil
}

// spotCheck recomputes one seeded cell per job straight through the
// engine and the codec and compares it with the served line; the traced
// run replays every cell instead.
func spotCheck(p *pass, g gen, o *ops) {
	rng := g.rng(numClients, 1)
	budget := time.Now().Add(time.Second)
	for _, jr := range p.jobs {
		if !jr.ok || time.Now().After(budget) {
			continue
		}
		sp := jr.js.spec
		i := rng.Intn(sp.NumCells())
		cell := sp.CellsRange(i, i+1)[0]
		cfg := sp.Config()
		cfg.Alpha, cfg.K = cell.Alpha, cell.K
		r, err := dynamics.RunContext(context.Background(), dynamics.CellState(sp.Factory(), cell, sp.BaseSeed), cfg)
		var line []byte
		if err == nil {
			line, err = ncgio.MarshalCellResult(dynamics.CellResult{Cell: cell, Result: r})
		}
		o.check(err == nil && bytes.Equal(line, jr.lines[i]), "job %s cell %d: recomputed line differs from the served line", jr.id, i)
	}
}

// soloCheck is N peers ≡ 0 peers: the first job's spec, run on a lone
// daemon, must produce the checkpoint the cluster served.
func soloCheck(w *workload, o runOpts, ops *ops, p *pass) error {
	var ref *jobRun
	for _, jr := range p.jobs {
		if jr.ok {
			ref = jr
			break
		}
	}
	if ref == nil {
		return nil
	}
	dir, err := os.MkdirTemp(o.outDir, "solo-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
	top, err := bootTopology(dir, 1)
	if err != nil {
		return err
	}
	defer top.close()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	solo := &jobRun{js: ref.js}
	runJob(hc, top, ops, nil, solo, 0)
	ops.check(solo.ok && bytes.Equal(solo.body, ref.body), "job %s: cluster checkpoint differs from the lone daemon's", ref.id)
	return nil
}

// runTraced runs a fixed job list twice through the front door —
// untraced, then with client-side spans — and then replays the traced
// pass's cells layer by layer and probes the layers under the responder.
func runTraced(w *workload, o runOpts, ops *ops, res *result) error {
	top, dir, _, err := setUp(w, o, ops)
	if err != nil {
		return err
	}
	defer tearDown(top, dir)
	limit := w.tracedJobs
	if o.tiny {
		limit = w.cycle
	}
	tr := newTracer(w.name)
	plain := runPass(w, top, gen{seed: o.seed, pass: 2, tiny: o.tiny}, ops, nil, 0, limit)
	g := gen{seed: o.seed, pass: 3, tiny: o.tiny}
	p := runPass(w, top, g, ops, tr, 0, limit)

	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	verifyPass(hc, top, ops, p)
	rd := readPhase(hc, top, ops, p, o.reads(), true)
	leaseUS := probeLease(hc, ops, p)
	if w.members > 1 {
		if err := soloCheck(w, o, ops, p); err != nil {
			return err
		}
	}
	meshS := top.meshS
	// The replay and the probes time single layers: the daemons must be
	// gone so nothing else is on the CPU.
	top.close()

	rr, err := replay(filepath.Join(dir, "replay"), p, ops, tr)
	if err != nil {
		return err
	}
	nTriples := 64
	if o.tiny {
		nTriples = 4
	}
	pr := probeLayers(sampleTriples(p, g, nTriples))
	if err := tr.writeJSONL(filepath.Join(o.outDir, w.name+"-spans.jsonl")); err != nil {
		return err
	}
	res.self = tr.selfTimes()
	res.values = tracedValues(p, plain, rd, rr, pr, tr, leaseUS, meshS, min(w.workers(), runtime.GOMAXPROCS(0)))
	return nil
}

// tracedValues derives every per-layer metric, in manifest order.
func tracedValues(p, plain *pass, rd *reads, rr *replayResult, pr *probeResult, tr *tracer, leaseUS, meshS float64, workers int) []value {
	var submitMS, firstMS, lagMS, jobMS, placeMS, readyMS []float64
	var hits, total, remote, forwarded int
	for _, jr := range p.jobs {
		if !jr.ok {
			continue
		}
		submitMS = append(submitMS, jr.submitMS)
		firstMS = append(firstMS, jr.firstMS)
		jobMS = append(jobMS, jr.jobMS)
		lagMS = append(lagMS, ms(jr.doneSeen.Sub(jr.info.Finished)))
		hits += jr.info.CacheHits
		total += jr.info.Total
		remote += jr.info.RemoteCells
		if jr.forwarded {
			forwarded++
			placeMS = append(placeMS, jr.submitMS)
		}
		if jr.readyMS > 0 {
			readyMS = append(readyMS, jr.readyMS)
		}
	}
	var gated, run, respond time.Duration
	var runMS []float64
	var computed, rounds, evals, calls, improved, players, lineBytes int
	type row struct {
		cells, moves int
		social       float64
		busy         time.Duration
	}
	kinds := map[string]*row{"sum-exact": {}, "sum-large": {}}
	for _, c := range rr.cells {
		gated += c.factory + c.run
		lineBytes += c.lineLen
		if k := kinds[c.kind]; k != nil {
			k.cells++
			k.moves += c.moves
			k.social += c.social
			k.busy += c.pipeline
		}
		if c.hit {
			continue
		}
		computed++
		run += c.run
		respond += c.respond
		runMS = append(runMS, ms(c.run))
		rounds += c.rounds
		evals += c.evals
		players += c.n * c.rounds
		calls += c.calls
		improved += c.improved
	}
	var respondUS []float64
	for _, s := range tr.spans {
		if s.name == "respond" {
			respondUS = append(respondUS, float64(s.endNS-s.startNS)/1e3)
		}
	}
	var replicaReadMS []float64
	if meshS > 0 {
		replicaReadMS = rd.fullMS
	}
	cells := len(rr.cells)
	f := func(x int) float64 { return float64(x) }
	byName := map[string]value{}
	set := func(name string, v float64, n int) { byName[name] = value{name: name, v: v, n: n} }
	set("sweepd.submit_ms_p50", median(submitMS), len(submitMS))
	set("sweepd.first_result_ms_p50", median(firstMS), len(firstMS))
	set("sweepd.done_lag_ms_p50", median(lagMS), len(lagMS))
	set("sweepd.job_p50_ms", median(jobMS), len(jobMS))
	set("sweepd.job_p95_ms", quantile(jobMS, 0.95), len(jobMS))
	set("sweepd.read_p50_ms", median(rd.fullMS), len(rd.fullMS))
	// The worker gate is held around factory + engine only; everything
	// else (emitter, HTTP, poll idle, contention) is the overhead.
	set("sweepd.overhead_share", 1-ratio(gated.Seconds(), f(workers)*p.wall.Seconds()), cells)
	set("sweepd.revalidate_ms_p50", median(rd.revalidateMS), len(rd.revalidateMS))
	set("sweepd.summary_ms_p50", median(rd.summaryMS), len(rd.summaryMS))
	set("process.alloc_mb_per_kcell", ratio(float64(p.alloc)/1e6, f(p.cells)/1000), p.cells)
	set("process.peak_rss_mb", peakRSSMB(), 1)
	set("cache.put_us", median(rr.putUS), len(rr.putUS))
	set("cache.get_us", median(rr.getUS), len(rr.getUS))
	set("cache.hit_ratio", ratio(f(hits), f(total)), total)
	set("sched.forward_share", ratio(f(forwarded), f(len(jobMS))), len(jobMS))
	set("sched.placement_ms_p50", median(placeMS), len(placeMS))
	set("shard.remote_cell_share", ratio(f(remote), f(total)), total)
	set("shard.lease_us_per_cell", leaseUS, leaseProbeReps)
	set("cluster.mesh_s", meshS, 1)
	set("store.create_job_us", median(rr.createJobUS), len(rr.createJobUS))
	set("store.append_us", median(rr.appendUS), len(rr.appendUS))
	set("store.sync_us", median(rr.syncUS), len(rr.syncUS))
	set("store.load_results_ms", median(rr.loadMS), len(rr.loadMS))
	set("store.bytes_per_cell", ratio(float64(rr.fileBytes), f(cells)), cells)
	set("replica.ready_ms_p50", median(readyMS), len(readyMS))
	set("replica.read_ms_p50", median(replicaReadMS), len(replicaReadMS))
	set("replica.redirect_share", ratio(f(rd.redirects), f(len(rd.fullMS)+rd.redirects)), len(rd.fullMS)+rd.redirects)
	set("ncgio.marshal_us", median(rr.marshalUS), len(rr.marshalUS))
	set("ncgio.unmarshal_us", median(rr.unmarshalUS), len(rr.unmarshalUS))
	set("ncgio.trajectory_marshal_us", median(rr.trajUS), len(rr.trajUS))
	set("ncgio.bytes_per_cell", ratio(f(lineBytes), f(cells)), cells)
	set("gen.factory_us", median(rr.factoryUS), len(rr.factoryUS))
	set("dynamics.run_ms_p50", median(runMS), computed)
	set("dynamics.run_ms_p95", quantile(runMS, 0.95), computed)
	set("dynamics.self_share", ratio((run-respond).Seconds(), run.Seconds()), computed)
	set("dynamics.rounds_per_cell", ratio(f(rounds), f(computed)), computed)
	set("dynamics.evals_per_round", ratio(f(evals), f(rounds)), rounds)
	set("dynamics.eval_skip_ratio", 1-ratio(f(evals), f(players)), rounds)
	for name, k := range kinds {
		set("dialect."+name+".cells_per_s", ratio(f(k.cells), k.busy.Seconds()), k.cells)
		set("dialect."+name+".moves_per_cell", ratio(f(k.moves), f(k.cells)), k.cells)
		set("dialect."+name+".social_cost_mean", ratio(k.social, f(k.cells)), k.cells)
	}
	set("bestresponse.respond_us_p50", median(respondUS), len(respondUS))
	set("bestresponse.respond_us_p95", quantile(respondUS, 0.95), len(respondUS))
	set("bestresponse.calls_per_cell", ratio(f(calls), f(computed)), computed)
	set("bestresponse.improving_ratio", ratio(f(improved), f(calls)), calls)
	set("bestresponse.allocs_per_call", pr.allocsCall, len(pr.respondUS)*probeReps)
	set("bestresponse.share", ratio(respond.Seconds(), run.Seconds()), computed)
	set("mds.solve_us_p50", median(pr.mdsSolveUS), len(pr.mdsSolveUS))
	set("mds.allocs_per_solve", pr.mdsAllocs, len(pr.mdsSolveUS))
	set("mds.share_of_respond", pr.mdsShare, len(pr.mdsSolveUS))
	set("view.extract_us", median(pr.extractUS), len(pr.extractUS))
	set("view.balldist_us", median(pr.balldistUS), len(pr.balldistUS))
	set("view.ball_size_mean", stats.Mean(pr.ballSize), len(pr.ballSize))
	set("graph.multibfs_us", median(pr.multibfsUS), len(pr.multibfsUS))
	set("graph.csr_us", median(pr.csrUS), len(pr.csrUS))
	set("trace.overhead_share", 1-ratio(p.cellsPerS(), plain.cellsPerS()), p.cells)

	if len(byName) != len(perLayer) {
		panic(fmt.Sprintf("bench: %d per-layer values for %d manifest entries", len(byName), len(perLayer)))
	}
	vals := make([]value, 0, len(perLayer))
	for _, def := range perLayer {
		v, ok := byName[def.name]
		if !ok {
			panic("bench: no value for per-layer metric " + def.name)
		}
		v.unit = def.unit
		vals = append(vals, v)
	}
	return vals
}
