package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
	"repro/internal/sweepd"
)

// Options tunes a Pool. The zero value is production-ready.
type Options struct {
	// LeaseCells caps how many cells one lease covers (default 64).
	// Smaller leases balance better and lose less to a dead peer;
	// larger leases amortize HTTP overhead.
	LeaseCells int
}

// PeerSource supplies the peers a job may lease to, and hears back which
// of them failed a lease, so a registry demotes the peer at once instead of
// every subsequent job rediscovering the failure at lease-TTL cost. The
// pool snapshots AlivePeers once per job, so membership changes never
// touch a running job. cluster.Registry implements it (alive members
// only).
type PeerSource interface {
	AlivePeers() []string
	ReportLeaseFailure(url string)
}

// leaseTTL is the heartbeat watchdog: a lease whose stream delivers no
// bytes for this long is canceled and its remainder reclaimed locally
// (followers heartbeat every 15s).
const leaseTTL = 45 * time.Second

// Pool fans sweep work out to peer daemons. It implements
// sweepd.ExecutorProvider; install it with Manager.SetExecutorProvider.
// A Pool is safe for concurrent use by many jobs.
type Pool struct {
	source PeerSource
	opts   Options

	leasesIssued  atomic.Uint64
	leaseFailures atomic.Uint64
	remoteCells   atomic.Uint64
}

// NewFromSource builds a pool whose peers come from a live source —
// usually a cluster.Registry — consulted afresh for each job.
func NewFromSource(source PeerSource, opts Options) *Pool {
	if opts.LeaseCells <= 0 {
		opts.LeaseCells = 64
	}
	return &Pool{source: source, opts: opts}
}

// Stats snapshots the leader-side sharding counters. Peers is the
// number of peers the pool would lease to right now.
func (p *Pool) Stats() sweepd.PeerStats {
	return sweepd.PeerStats{
		Peers:         len(p.source.AlivePeers()),
		LeasesIssued:  p.leasesIssued.Load(),
		LeaseFailures: p.leaseFailures.Load(),
		RemoteCells:   p.remoteCells.Load(),
	}
}

// ExecutorFor implements sweepd.ExecutorProvider. It snapshots the
// source's alive peers for this job and returns nil (run locally) when
// none are alive. Trajectory specs shard like any other: their leases
// stream ncgio lease records carrying each cell's per-round stats next
// to its canonical result line.
func (p *Pool) ExecutorFor(sp sweepd.Spec, onRemote func(cells int)) dynamics.Executor {
	peers := p.source.AlivePeers()
	if len(peers) == 0 {
		return nil
	}
	return &executor{pool: p, peers: peers, spec: sp, onRemote: onRemote}
}

// executor shards one job's cells between the local pool and the job's
// snapshot of alive peers.
type executor struct {
	pool     *Pool
	peers    []string
	spec     sweepd.Spec
	onRemote func(cells int)
}

// cellRange is a contiguous [start, end) slice of the canonical grid.
type cellRange struct{ start, end int }

func (cr cellRange) len() int { return cr.end - cr.start }

func (cr cellRange) todo() []int {
	out := make([]int, 0, cr.len())
	for i := cr.start; i < cr.end; i++ {
		out = append(out, i)
	}
	return out
}

// contiguousRanges splits ascending todo indices into maximal consecutive
// runs, each capped at max cells. Resume holes (cells satisfied from the
// checkpoint or cache) end a run, so every range maps to one lease over
// [start, end) of the full grid.
func contiguousRanges(todo []int, max int) []cellRange {
	var out []cellRange
	for i := 0; i < len(todo); {
		start := todo[i]
		j := i + 1
		for j < len(todo) && todo[j] == todo[j-1]+1 && j-i < max {
			j++
		}
		out = append(out, cellRange{start: start, end: todo[j-1] + 1})
		i = j
	}
	return out
}

// Execute implements dynamics.Executor: local pool and peers pull lease-
// sized ranges from one shared queue; failed leases are reclaimed by
// recomputing their undelivered remainder locally.
func (e *executor) Execute(ctx context.Context, req dynamics.ExecRequest) <-chan dynamics.IndexedResult {
	out := make(chan dynamics.IndexedResult)
	go func() {
		defer close(out)
		queue := make(chan cellRange)
		go func() {
			defer close(queue)
			for _, cr := range contiguousRanges(req.Todo, e.pool.opts.LeaseCells) {
				select {
				case queue <- cr:
				case <-ctx.Done():
					return
				}
			}
		}()
		send := func(ir dynamics.IndexedResult) bool {
			select {
			case out <- ir:
				return true
			case <-ctx.Done():
				return false
			}
		}
		local := func(todo []int) {
			if len(todo) == 0 {
				return
			}
			sub := req
			sub.Todo = todo
			for ir := range (dynamics.LocalExecutor{}).Execute(ctx, sub) {
				if !send(ir) {
					break
				}
			}
		}

		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // local consumer
			defer wg.Done()
			for cr := range queue {
				local(cr.todo())
			}
		}()
		for _, peer := range e.peers {
			wg.Add(1)
			go func(peer string) {
				defer wg.Done()
				for cr := range queue {
					e.pool.leasesIssued.Add(1)
					got, err := e.lease(ctx, peer, cr, req.Cells, send)
					if err != nil {
						if got > 0 {
							e.recordRemote(got)
						}
						// Reclaim the undelivered remainder locally, then
						// retire this peer for the rest of the sweep and
						// report it to the peer source, so a registry
						// demotes it for subsequent jobs too (a static
						// source just probes it afresh next job). A sweep
						// canceled outright is not a peer failure.
						if ctx.Err() == nil {
							e.pool.leaseFailures.Add(1)
							e.pool.source.ReportLeaseFailure(peer)
							local(cr.todo()[got:])
						}
						return
					}
					e.recordRemote(cr.len())
				}
			}(peer)
		}
		wg.Wait()
	}()
	return out
}

func (e *executor) recordRemote(cells int) {
	e.pool.remoteCells.Add(uint64(cells))
	if e.onRemote != nil {
		e.onRemote(cells)
	}
}

// lease asks one peer for [cr.start, cr.end) and streams the results
// into send as they arrive, returning how many cells were delivered. The
// TTL watchdog cancels a stream that goes silent (no result lines and no
// heartbeats); any error leaves the remainder to the caller's reclaim.
func (e *executor) lease(ctx context.Context, peer string, cr cellRange, cells []dynamics.Cell, send func(dynamics.IndexedResult) bool) (got int, err error) {
	body, err := json.Marshal(sweepd.LeaseRequest{Spec: e.spec, Start: cr.start, End: cr.end})
	if err != nil {
		return 0, err
	}
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	resetWatchdog, stopWatchdog := sweepd.Time().AfterFunc(leaseTTL, cancel)
	defer stopWatchdog()

	// A 429 is load shedding (-peer-rate on the follower), not death: the
	// client waits out Retry-After (the watchdog is pushed past each wait)
	// instead of retiring a healthy peer, bounding total backoff by the
	// lease TTL so a peer that only ever throttles still falls back to
	// local compute eventually.
	resp, err := sweepd.Peer.Do(lctx, http.MethodPost, peer+"/peer/leases", "application/json", body, leaseTTL,
		func(wait time.Duration) { resetWatchdog(wait + leaseTTL) })
	if err != nil {
		return 0, fmt.Errorf("shard: peer %s: %w", peer, err)
	}
	defer resp.Body.Close()

	// Not ncgio.Lines, alone among readers of record lines: a blank line
	// here is a heartbeat the watchdog must see the moment it arrives.
	br := bufio.NewReaderSize(resp.Body, 64*1024)
	want := cr.len()
	for got < want {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil {
			return got, fmt.Errorf("shard: peer %s: lease stream ended after %d of %d cells: %w", peer, got, want, rerr)
		}
		resetWatchdog(leaseTTL)
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue // heartbeat
		}
		var rec dynamics.CellResult
		var uerr error
		if e.spec.Trajectories {
			// Trajectory leases wrap each result line with its per-round
			// stats; unwrapping reattaches them, so the sidecar the leader
			// writes is identical to a locally computed cell's.
			rec, uerr = ncgio.UnmarshalLeaseRecord(line)
		} else {
			rec, uerr = ncgio.UnmarshalCellResult(line)
		}
		if uerr != nil {
			return got, fmt.Errorf("shard: peer %s: %w", peer, uerr)
		}
		idx := cr.start + got
		if rec.Cell != cells[idx] {
			return got, fmt.Errorf("shard: peer %s returned cell %+v at grid index %d, want %+v", peer, rec.Cell, idx, cells[idx])
		}
		if !send(dynamics.IndexedResult{Index: idx, Result: rec.Result}) {
			return got, ctx.Err()
		}
		got++
	}
	return got, nil
}
