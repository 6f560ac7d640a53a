package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bestresponse"
	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/ncgio"
	"repro/internal/sweepd"
)

// syncEvery is ncgio.CheckpointWriter's own cadence; the replay issues
// the same fsyncs itself so writes and syncs are timed apart.
const syncEvery = 32

// cellTimes is what the replay measured for one cell.
type cellTimes struct {
	kind     string
	n        int
	hit      bool          // served from the replay's cache, as the daemon's was
	pipeline time.Duration // the whole cell span, codec and writes included
	factory  time.Duration
	run      time.Duration
	respond  time.Duration
	calls    int
	improved int
	rounds   int
	evals    int
	moves    int
	social   float64
	lineLen  int
}

// replayResult aggregates the layer replay of one pass.
type replayResult struct {
	cells       []cellTimes
	createJobUS []float64
	factoryUS   []float64
	marshalUS   []float64
	trajUS      []float64
	appendUS    []float64
	syncUS      []float64
	putUS       []float64
	getUS       []float64
	unmarshalUS []float64
	loadMS      []float64
	fileBytes   int64
}

// replay pushes every cell of the pass's jobs, single-threaded, through
// each layer's public functions in the order the daemon's runJob calls
// them — cache look-up, start-state factory, engine with a timing
// decorator around the responder, codec, checkpoint append, cache put,
// sync — and then reads each line back through the cache and the
// decoder. Every replayed line must equal the line the daemon served.
// Jobs are replayed per client in submission order, so a cell the
// daemon found in its cache is found in the replay's cache too.
func replay(dir string, p *pass, o *ops, tr *tracer) (*replayResult, error) {
	st, err := sweepd.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	cache, err := sweepd.NewDiskCache(cacheEntries, filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	rr := &replayResult{}
	ctx := context.Background()
	for c := 0; c < numClients; c++ {
		for jobNo, jr := range p.jobs {
			if jr.client != c || !jr.ok {
				continue
			}
			if err := replayJob(ctx, st, cache, jr, jobNo, o, tr, rr); err != nil {
				return nil, err
			}
		}
	}
	return rr, nil
}

func replayJob(ctx context.Context, st *sweepd.Store, cache *sweepd.Cache, jr *jobRun, jobNo int, o *ops, tr *tracer, rr *replayResult) error {
	sp := jr.js.spec
	root := tr.begin("replay_job", jobNo, -1, -1)
	defer tr.end(root)

	s := tr.begin("store.create_job", jobNo, -1, root)
	id, _, err := st.CreateJob(sp)
	rr.createJobUS = append(rr.createJobUS, us(tr.end(s)))
	if err != nil {
		return err
	}
	w, err := st.Appender(id)
	if err != nil {
		return err
	}
	defer w.Close()
	w.SyncEvery = 1 << 30
	var tw *ncgio.CheckpointWriter
	if sp.Trajectories {
		if tw, err = st.TrajectoryAppender(id); err != nil {
			return err
		}
		defer tw.Close()
		tw.SyncEvery = 1 << 30
	}
	syncFiles := func() error {
		s := tr.begin("store.sync", jobNo, -1, root)
		err := w.Sync()
		if err == nil && tw != nil {
			err = tw.Sync()
		}
		rr.syncUS = append(rr.syncUS, us(tr.end(s)))
		return err
	}

	kernel := sp.KernelHash()
	useCache := !sp.Trajectories
	factory := sp.Factory()
	base := sp.Config()
	inner := base.ResolveResponder()
	matched := 0
	for i, cell := range sp.Cells() {
		ct := cellTimes{kind: jr.js.kind, n: sp.N}
		cs := tr.begin("cell", jobNo, i, root)
		var res dynamics.Result
		if useCache {
			if line, ok := cache.Get(kernel, cell); ok {
				if r, err := ncgio.UnmarshalCellResult(line); err == nil {
					res, ct.hit = r.Result, true
				}
			}
		}
		if !ct.hit {
			s := tr.begin("gen.factory", jobNo, i, cs)
			state := dynamics.CellState(factory, cell, sp.BaseSeed)
			ct.factory = tr.end(s)
			rr.factoryUS = append(rr.factoryUS, us(ct.factory))

			cfg := base
			cfg.Alpha, cfg.K = cell.Alpha, cell.K
			run := tr.begin("dynamics.run", jobNo, i, cs)
			cfg.Responder = func(gs *game.State, u, k int, alpha float64) bestresponse.Response {
				r := tr.begin("respond", jobNo, i, run)
				resp := inner(gs, u, k, alpha)
				ct.respond += tr.end(r)
				ct.calls++
				if resp.Improving {
					ct.improved++
				}
				return resp
			}
			if res, err = dynamics.RunContext(ctx, state, cfg); err != nil {
				return err
			}
			ct.run = tr.end(run)
			ct.rounds, ct.evals, ct.moves = res.Rounds, res.Evaluations, res.TotalMoves
			ct.social = res.FinalStats.SocialCost
		}

		s := tr.begin("ncgio.marshal", jobNo, i, cs)
		line, err := ncgio.MarshalCellResult(dynamics.CellResult{Cell: cell, Result: res})
		rr.marshalUS = append(rr.marshalUS, us(tr.end(s)))
		if err != nil {
			return err
		}
		ct.lineLen = len(line)
		if tw != nil && len(res.PerRound) > 0 {
			s := tr.begin("ncgio.trajectory_marshal", jobNo, i, cs)
			tline, err := ncgio.MarshalTrajectory(cell, res.PerRound)
			rr.trajUS = append(rr.trajUS, us(tr.end(s)))
			if err != nil {
				return err
			}
			if err := tw.AppendLine(tline); err != nil {
				return err
			}
		}
		s = tr.begin("store.append", jobNo, i, cs)
		err = w.AppendLine(line)
		rr.appendUS = append(rr.appendUS, us(tr.end(s)))
		if err != nil {
			return err
		}
		if useCache {
			s = tr.begin("cache.put", jobNo, i, cs)
			cache.Put(kernel, cell, line)
			rr.putUS = append(rr.putUS, us(tr.end(s)))
		}
		if (i+1)%syncEvery == 0 {
			if err := syncFiles(); err != nil {
				return err
			}
		}
		ct.pipeline = tr.end(cs)
		rr.cells = append(rr.cells, ct)
		if bytes.Equal(line, jr.lines[i]) {
			matched++
		}
	}
	if err := syncFiles(); err != nil {
		return err
	}
	o.check(matched == sp.NumCells(), "job %s: %d of %d replayed lines equal the served lines", jr.id, matched, sp.NumCells())
	hits := 0
	for _, c := range rr.cells[len(rr.cells)-sp.NumCells():] {
		if c.hit {
			hits++
		}
	}
	o.check(hits == jr.info.CacheHits, "job %s: daemon reported %d cache hits, replay found %d", jr.id, jr.info.CacheHits, hits)

	// The read side of the same lines: cache get, decode, resume load.
	for i, cell := range sp.Cells() {
		line := jr.lines[i]
		if useCache {
			s := tr.begin("cache.get", jobNo, i, root)
			got, ok := cache.Get(kernel, cell)
			rr.getUS = append(rr.getUS, us(tr.end(s)))
			if ok {
				line = got
			}
		}
		s := tr.begin("ncgio.unmarshal", jobNo, i, root)
		_, err := ncgio.UnmarshalCellResult(line)
		rr.unmarshalUS = append(rr.unmarshalUS, us(tr.end(s)))
		if err != nil {
			return err
		}
	}
	s = tr.begin("store.load_results", jobNo, -1, root)
	loaded, err := st.LoadResults(id)
	rr.loadMS = append(rr.loadMS, ms(tr.end(s)))
	if err != nil {
		return err
	}
	o.check(len(loaded) == sp.NumCells(), "job %s: resume load found %d of %d cells", jr.id, len(loaded), sp.NumCells())
	for _, path := range []string{st.ResultsPath(id), st.TrajectoryPath(id)} {
		if fi, err := os.Stat(path); err == nil {
			rr.fileBytes += fi.Size()
		}
	}
	return nil
}
