package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"sort"
	"time"

	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/mds"
	"repro/internal/sweepd"
	"repro/internal/view"
)

// triple is one sampled responder input: a cell's starting state, a
// player, and the cell's (k, α).
type triple struct {
	spec  sweepd.Spec
	state *game.State
	u, k  int
	alpha float64
}

// sampleTriples draws n triples from the cells of the traced jobs, from
// a stream fixed by the seed.
func sampleTriples(p *pass, g gen, n int) []triple {
	var jobs []*jobRun
	for _, jr := range p.jobs {
		if jr.ok {
			jobs = append(jobs, jr)
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	// p.jobs is in arrival order, which the two clients race for.
	sort.Slice(jobs, func(i, j int) bool {
		if jobs[i].client != jobs[j].client {
			return jobs[i].client < jobs[j].client
		}
		return jobs[i].idx < jobs[j].idx
	})
	rng := g.rng(numClients, 0)
	out := make([]triple, 0, n)
	for len(out) < n {
		sp := jobs[rng.Intn(len(jobs))].js.spec
		i := rng.Intn(sp.NumCells())
		cell := sp.CellsRange(i, i+1)[0]
		out = append(out, triple{
			spec:  sp,
			state: dynamics.CellState(sp.Factory(), cell, sp.BaseSeed),
			u:     rng.Intn(sp.N),
			k:     cell.K,
			alpha: cell.Alpha,
		})
	}
	return out
}

// probeResult holds the per-triple measurements of the layers below the
// responder.
type probeResult struct {
	respondUS  []float64
	allocsCall float64
	extractUS  []float64
	balldistUS []float64
	ballSize   []float64
	mdsSolveUS []float64
	mdsAllocs  float64
	mdsShare   float64
	multibfsUS []float64
	csrUS      []float64
}

const (
	probeReps      = 10
	leaseProbeReps = 20
)

// mallocs reads the process's cumulative heap-object count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// probeLayers times, on the same triples, the responder the workload's
// dialect uses and the pieces under it: ball extraction, the all-sources
// ball distances, the exact MAX responder's dominating-set solves,
// the dirty-set BFS and the CSR snapshot. Nothing else runs meanwhile.
func probeLayers(ts []triple) *probeResult {
	pr := &probeResult{}
	ws := view.GetWorkspace()
	defer view.PutWorkspace(ws)
	var calls, callAllocs, solves, solveAllocs uint64
	var mdsTotal, maxRespondTotal time.Duration
	var row []int32
	var csr *graph.CSR
	var ms mdsScratch
	for _, t := range ts {
		g := t.state.Graph()
		respond := t.spec.Config().ResolveResponder()
		respond(t.state, t.u, t.k, t.alpha) // size the evaluator's scratch
		m0 := mallocs()
		t0 := time.Now()
		for r := 0; r < probeReps; r++ {
			respond(t.state, t.u, t.k, t.alpha)
		}
		d := time.Since(t0)
		callAllocs += mallocs() - m0
		calls += probeReps
		pr.respondUS = append(pr.respondUS, us(d)/probeReps)

		t0 = time.Now()
		for r := 0; r < probeReps; r++ {
			ws.Extract(g, t.u, t.k)
		}
		pr.extractUS = append(pr.extractUS, us(time.Since(t0))/probeReps)
		pr.ballSize = append(pr.ballSize, float64(ws.Size()))

		if cap(row) < ws.Size() {
			row = make([]int32, ws.Size())
		}
		row = row[:ws.Size()]
		t0 = time.Now()
		for r := 0; r < probeReps; r++ {
			for j := 1; j < ws.Size(); j++ {
				ws.BallDistFrom(int32(j), row)
			}
		}
		pr.balldistUS = append(pr.balldistUS, us(time.Since(t0))/probeReps)

		if t.spec.Dialect == "" && t.spec.Variant == "max" {
			maxRespondTotal += d
			ms.load(ws, t)
			m0 = mallocs()
			var md time.Duration
			var n int
			for r := 0; r < probeReps; r++ {
				dn, dd := ms.solves(ws, t)
				n += dn
				md += dd
			}
			solveAllocs += mallocs() - m0
			solves += uint64(n)
			mdsTotal += md
			if n > 0 {
				pr.mdsSolveUS = append(pr.mdsSolveUS, us(md)/float64(n))
			}
		}

		srcs := []int32{int32(t.u), int32((t.u + 1) % t.state.N())}
		scratch := graph.GetScratch(t.state.N())
		t0 = time.Now()
		for r := 0; r < probeReps; r++ {
			g.MultiBFSWithinScratch(srcs, t.k, scratch)
		}
		pr.multibfsUS = append(pr.multibfsUS, us(time.Since(t0))/probeReps)
		graph.PutScratch(scratch)

		t0 = time.Now()
		for r := 0; r < probeReps; r++ {
			csr = g.CSRInto(csr)
		}
		pr.csrUS = append(pr.csrUS, us(time.Since(t0))/probeReps)
	}
	pr.allocsCall = ratio(float64(callAllocs), float64(calls))
	pr.mdsAllocs = ratio(float64(solveAllocs), float64(solves))
	pr.mdsShare = ratio(mdsTotal.Seconds(), maxRespondTotal.Seconds())
	return pr
}

// mdsScratch is the probe's own working set, sized once per triple so
// that mds.allocs_per_solve counts the solver's allocations only.
type mdsScratch struct {
	forced []int
	dist   []int32
	row    []int32
	slab   []uint64
	nbs    [][]uint64
}

// load fills the scratch from the triple's extracted ball: the forced
// dominators (view vertices that bought an edge towards the player) and
// the all-pairs distances of the centre-less view.
func (m *mdsScratch) load(ws *view.Workspace, t triple) {
	rB := ws.Size() - 1
	m.forced = m.forced[:0]
	for j := 0; j < rB; j++ {
		if t.state.Buys(int(ws.Orig[j+1]), t.u) {
			m.forced = append(m.forced, j)
		}
	}
	m.dist = make([]int32, rB*rB)
	m.row = make([]int32, rB+1)
	for j := 0; j < rB; j++ {
		ws.BallDistFrom(int32(j+1), m.row)
		copy(m.dist[j*rB:(j+1)*rB], m.row[1:])
	}
	words := (rB + 63) / 64
	m.slab = make([]uint64, rB*words)
	m.nbs = make([][]uint64, rB)
	for j := range m.nbs {
		m.nbs[j] = m.slab[j*words : (j+1)*words]
	}
}

// solves runs the dominating-set instances Evaluator.MaxBestResponse
// solves for this triple — closed (h-1)-power neighbourhoods of the
// centre-less view for h = 2k+1…1, with the responder's incumbent cap
// and forced set — through the solver's public entry point, timing only
// the solver calls.
func (m *mdsScratch) solves(ws *view.Workspace, t triple) (int, time.Duration) {
	const epsilon = 1e-9
	rB := ws.Size() - 1
	best := t.alpha*float64(t.state.BoughtCount(t.u)) + float64(ws.ViewEcc())
	solves, total := 0, time.Duration(0)
	for h := min(2*t.k+1, rB); h >= 1; h-- {
		if float64(h) >= best-epsilon {
			continue
		}
		limit := rB + 1
		if t.alpha > 0 {
			limit = min(limit, int(math.Ceil((best-float64(h))/t.alpha)))
		}
		clear(m.slab)
		for j := 0; j < rB; j++ {
			for i, d := range m.dist[j*rB : (j+1)*rB] {
				if d <= int32(h-1) {
					m.nbs[j][i/64] |= 1 << (i % 64)
				}
			}
		}
		t0 := time.Now()
		extra, ok := mds.MinDominatingExtraAtMostBitsets(rB, m.nbs, m.forced, limit)
		total += time.Since(t0)
		solves++
		if cost := t.alpha*float64(len(extra)) + float64(h); ok && cost < best-epsilon {
			best = cost
		}
	}
	return solves, total
}

// probeLease times the sharding transport alone: a direct POST
// /peer/leases to a job's leader for up to 64 of the job's cells, all
// already in that daemon's cache, so nothing is computed — the lease is
// look-up, decode, re-encode and the HTTP stream. Returns µs per cell.
func probeLease(hc *http.Client, o *ops, p *pass) float64 {
	for _, jr := range p.jobs {
		if !jr.ok || jr.js.spec.Trajectories {
			continue
		}
		end := min(leaseCells, jr.js.spec.NumCells())
		body, err := json.Marshal(sweepd.LeaseRequest{Spec: jr.js.spec, Start: 0, End: end})
		if err != nil {
			panic(err)
		}
		want := append(bytes.Join(jr.lines[:end], []byte("\n")), '\n')
		var perCell []float64
		for r := 0; r < leaseProbeReps; r++ {
			t0 := time.Now()
			resp, err := hc.Post(jr.leader+"/peer/leases", "application/json", bytes.NewReader(body))
			if !o.check(err == nil, "lease probe: %v", err) {
				return 0
			}
			var got bytes.Buffer
			_, err = got.ReadFrom(resp.Body)
			resp.Body.Close()
			d := time.Since(t0)
			if o.check(err == nil && resp.StatusCode == http.StatusOK && bytes.Equal(got.Bytes(), want),
				"lease probe at %s: status %d, lines differ from the checkpoint", jr.leader, resp.StatusCode) {
				perCell = append(perCell, us(d)/float64(end))
			}
		}
		return median(perCell)
	}
	return 0
}
