package shard_test

// End-to-end tests for the peer-sharding subsystem: real daemons wired
// over httptest, proving the acceptance criterion — checkpoints are
// byte-identical with 0, 1, or 2 peers, across a peer killed mid-sweep,
// and across a peer that hangs until the lease TTL reclaims its range.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamics"
	"repro/internal/sweepd"
	"repro/internal/sweepd/cluster"
	"repro/internal/sweepd/shard"
)

// daemonClock and installClock bind clock_test.go's fake to the daemon's
// clock.
type daemonClock = sweepd.Clock

var installClock = sweepd.UseClock

func e2eSpec() sweepd.Spec {
	sp := sweepd.Spec{
		N:      16,
		Alphas: []float64{0.5, 1, 2},
		Ks:     []int{2, 1000},
		Seeds:  4, // 24 cells
	}
	sp.Normalize()
	return sp
}

// daemon is one in-process sweepd instance with its HTTP surface.
type daemon struct {
	store *sweepd.Store
	mgr   *sweepd.Manager
	srv   *httptest.Server
	// leases counts POST /peer/leases requests that reached this daemon;
	// onLease, when set, runs on each of them before it is served.
	leases  atomic.Uint64
	onLease atomic.Pointer[func()]
}

// leased returns a channel closed when the first lease request reaches d.
func (d *daemon) leased() <-chan struct{} {
	c := make(chan struct{})
	var once sync.Once
	signal := func() { once.Do(func() { close(c) }) }
	d.onLease.Store(&signal)
	return c
}

// serve starts the daemon's test server over h, creating it unless the
// caller already has (to learn its address first).
func (d *daemon) serve(h http.Handler) {
	if d.srv == nil {
		d.srv = httptest.NewUnstartedServer(nil)
	}
	d.srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/peer/leases" {
			d.leases.Add(1)
			if f := d.onLease.Load(); f != nil {
				(*f)()
			}
		}
		h.ServeHTTP(w, r)
	})
	d.srv.Start()
}

func newDaemon(t *testing.T, workers int) *daemon {
	t.Helper()
	store, err := sweepd.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := sweepd.NewManager(store, sweepd.NewCache(4096), workers)
	h := sweepd.NewHandlerConfig(mgr, sweepd.Config{})
	d := &daemon{store: store, mgr: mgr}
	d.serve(h)
	t.Cleanup(func() {
		d.srv.Close()
		d.mgr.Close()
	})
	return d
}

// newClusterDaemon is newDaemon plus a live membership registry wired
// into the HTTP surface: the daemon accepts POST /peer/hello, serves
// GET /peer/members, probes its peers, and (when seeded) announces
// itself — a full in-process ncg-server as far as clustering goes, probing
// at the default cadence on the daemon's clock.
func newClusterDaemon(t *testing.T, workers int, seeds ...string) (*daemon, *cluster.Registry) {
	t.Helper()
	store, err := sweepd.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := sweepd.NewManager(store, sweepd.NewCache(4096), workers)
	d := &daemon{store: store, mgr: mgr, srv: httptest.NewUnstartedServer(nil)}
	reg := cluster.New(cluster.Options{
		Self:  "http://" + d.srv.Listener.Addr().String(),
		Seeds: seeds,
	})
	d.serve(sweepd.NewHandlerConfig(mgr, sweepd.Config{Cluster: reg}))
	reg.Start()
	t.Cleanup(func() {
		reg.Close()
		d.srv.Close()
		d.mgr.Close()
	})
	return d, reg
}

func waitDone(t *testing.T, m *sweepd.Manager, id string) sweepd.Job {
	t.Helper()
	timeout := time.After(120 * time.Second)
	for {
		job, changed, ok := m.Watch(id)
		switch {
		case !ok:
			t.Fatalf("job %s vanished", id)
		case job.Status == sweepd.StatusDone:
			return job
		case job.Status == sweepd.StatusFailed:
			t.Fatalf("job failed: %s", job.Error)
		}
		select {
		case <-changed:
		case <-timeout:
			job, _ = m.Get(id)
			t.Fatalf("timed out waiting for job; job = %+v", job)
		}
	}
}

// runSharded runs the spec on a fresh leader sharded across the given
// peers and returns the finished checkpoint bytes plus the leader's job
// snapshot and pool.
func runSharded(t *testing.T, sp sweepd.Spec, opts shard.Options, peers ...*daemon) ([]byte, sweepd.Job, *shard.Pool) {
	t.Helper()
	leader := newDaemon(t, 4)
	urls := make([]string, 0, len(peers))
	for _, p := range peers {
		urls = append(urls, p.srv.URL)
	}
	pool := shard.New(urls, opts)
	leader.mgr.SetExecutorProvider(pool)
	job, _, err := leader.mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, leader.mgr, job.ID)
	data, err := os.ReadFile(leader.store.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	return data, done, pool
}

// TestShardedSweepByteIdentical is the acceptance criterion: the same
// spec finishes with byte-identical checkpoints on a lone daemon, a
// leader with one peer, and a leader with two peers — and the peers
// demonstrably served leases.
func TestShardedSweepByteIdentical(t *testing.T) {
	sp := e2eSpec()
	opts := shard.Options{LeaseCells: 3}

	ref, refJob, _ := runSharded(t, sp, opts) // zero peers
	if refJob.RemoteCells != 0 {
		t.Fatalf("peerless run reports %d remote cells", refJob.RemoteCells)
	}
	if len(ref) == 0 {
		t.Fatal("reference checkpoint is empty")
	}

	p1 := newDaemon(t, 2)
	one, oneJob, pool1 := runSharded(t, sp, opts, p1)
	if !bytes.Equal(one, ref) {
		t.Fatalf("1-peer checkpoint differs from lone-daemon run (%d vs %d bytes)", len(one), len(ref))
	}
	if p1.leases.Load() == 0 {
		t.Fatal("peer served no leases; the sharded path was not exercised")
	}
	if st := pool1.Stats(); st.RemoteCells == 0 || st.LeasesIssued == 0 {
		t.Fatalf("pool stats show no remote work: %+v", st)
	}
	if oneJob.RemoteCells == 0 {
		t.Fatal("job snapshot counted no remote cells")
	}

	p2a, p2b := newDaemon(t, 2), newDaemon(t, 2)
	two, _, _ := runSharded(t, sp, opts, p2a, p2b)
	if !bytes.Equal(two, ref) {
		t.Fatalf("2-peer checkpoint differs from lone-daemon run (%d vs %d bytes)", len(two), len(ref))
	}
	if p2a.leases.Load()+p2b.leases.Load() == 0 {
		t.Fatal("neither peer served a lease")
	}
}

// TestShardedTrajectorySweep: a trajectory spec shards like any other —
// its leases stream each cell's sidecar line before its result line — and
// both the checkpoint and the trajectory sidecar finish byte-identical to
// a lone-daemon run's.
func TestShardedTrajectorySweep(t *testing.T) {
	sp := sweepd.Spec{
		N:            14,
		Alphas:       []float64{0.5, 2},
		Ks:           []int{2, 1000},
		Seeds:        3, // 12 cells
		Trajectories: true,
	}
	sp.Normalize()
	opts := shard.Options{LeaseCells: 2}

	run := func(peers ...*daemon) ([]byte, []byte, sweepd.Job) {
		t.Helper()
		leader := newDaemon(t, 4)
		urls := make([]string, 0, len(peers))
		for _, p := range peers {
			urls = append(urls, p.srv.URL)
		}
		leader.mgr.SetExecutorProvider(shard.New(urls, opts))
		job, _, err := leader.mgr.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		done := waitDone(t, leader.mgr, job.ID)
		ckpt, err := os.ReadFile(leader.store.ResultsPath(job.ID))
		if err != nil {
			t.Fatal(err)
		}
		traj, err := os.ReadFile(leader.store.TrajectoryPath(job.ID))
		if err != nil {
			t.Fatal(err)
		}
		return ckpt, traj, done
	}

	refCkpt, refTraj, refJob := run() // zero peers
	if len(refCkpt) == 0 || len(refTraj) == 0 {
		t.Fatal("reference run left an empty checkpoint or sidecar")
	}
	if refJob.RemoteCells != 0 {
		t.Fatalf("peerless run reports %d remote cells", refJob.RemoteCells)
	}

	peer := newDaemon(t, 2)
	ckpt, traj, job := run(peer)
	if !bytes.Equal(ckpt, refCkpt) {
		t.Fatalf("sharded trajectory checkpoint differs (%d vs %d bytes)", len(ckpt), len(refCkpt))
	}
	if !bytes.Equal(traj, refTraj) {
		t.Fatalf("sharded trajectory sidecar differs (%d vs %d bytes)", len(traj), len(refTraj))
	}
	if peer.leases.Load() == 0 {
		t.Fatal("peer served no leases; the sharded trajectory path was not exercised")
	}
	if job.RemoteCells == 0 {
		t.Fatal("job snapshot counted no remote cells")
	}
}

// TestTrajectoryLeaseWrongSidecarCellRefused: a peer whose trajectory
// lease streams a sidecar line naming the wrong cell (the first two
// cells' sidecar lines swapped, every line well-formed) is refused at that
// line. The leader computes the range locally, and the job's checkpoint
// and sidecar end byte-identical to a solo run's.
func TestTrajectoryLeaseWrongSidecarCellRefused(t *testing.T) {
	sp := sweepd.Spec{N: 12, Alphas: []float64{0.5, 2}, Ks: []int{2}, Seeds: 2, Trajectories: true}
	sp.Normalize()
	files := func(d *daemon, id string) (ckpt, traj []byte) {
		t.Helper()
		var err error
		if ckpt, err = os.ReadFile(d.store.ResultsPath(id)); err != nil {
			t.Fatal(err)
		}
		if traj, err = os.ReadFile(d.store.TrajectoryPath(id)); err != nil {
			t.Fatal(err)
		}
		return ckpt, traj
	}
	solo := newDaemon(t, 2)
	job, _, err := solo.mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, solo.mgr, job.ID)
	refCkpt, refTraj := files(solo, job.ID)

	honest := newDaemon(t, 2)
	var served atomic.Uint64
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		honest.srv.Config.Handler.ServeHTTP(rec, r)
		var lines [][]byte
		for _, line := range bytes.Split(rec.Body.Bytes(), []byte("\n")) {
			if len(line) > 0 {
				lines = append(lines, line)
			}
		}
		if len(lines) >= 4 { // sidecar, result, sidecar, result
			lines[0], lines[2] = lines[2], lines[0]
		}
		served.Add(1)
		w.Write(append(bytes.Join(lines, []byte("\n")), '\n')) //nolint:errcheck
	}))
	t.Cleanup(liar.Close)

	leader := newDaemon(t, 2)
	pool := shard.New([]string{liar.URL}, shard.Options{LeaseCells: 2})
	leader.mgr.SetExecutorProvider(pool)
	if job, _, err = leader.mgr.Submit(sp); err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, leader.mgr, job.ID)
	if served.Load() == 0 {
		t.Fatal("the peer served no lease; the refusal was not exercised")
	}
	if st := pool.Stats(); st.LeaseFailures != 1 || st.RemoteCells != 0 || done.RemoteCells != 0 {
		t.Fatalf("pool stats %+v, job remote cells %d: want one refused lease and no remote cell", st, done.RemoteCells)
	}
	ckpt, traj := files(leader, job.ID)
	if !bytes.Equal(ckpt, refCkpt) || !bytes.Equal(traj, refTraj) {
		t.Fatalf("files differ from a solo run's: checkpoint %d vs %d bytes, sidecar %d vs %d",
			len(ckpt), len(refCkpt), len(traj), len(refTraj))
	}
}

// TestPeerKilledMidSweepReclaims kills the peer's HTTP server while the
// leader's sweep is in flight: the leader must reclaim any broken lease,
// finish the job locally, and still produce byte-identical results.
func TestPeerKilledMidSweepReclaims(t *testing.T) {
	sp := sweepd.Spec{
		N:      20,
		Alphas: []float64{0.3, 0.5, 1, 2, 5},
		Ks:     []int{2, 3, 1000},
		Seeds:  4, // 60 cells: long enough to kill mid-flight
	}
	sp.Normalize()
	opts := shard.Options{LeaseCells: 2}

	ref, _, _ := runSharded(t, sp, opts)

	peer := newDaemon(t, 1) // slow follower: leases outlive the kill window
	leased := peer.leased()
	leader := newDaemon(t, 4)
	pool := shard.New([]string{peer.srv.URL}, opts)
	leader.mgr.SetExecutorProvider(pool)
	job, _, err := leader.mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the peer as soon as it has a lease in hand.
	<-leased
	peer.srv.CloseClientConnections()
	peer.srv.Close()

	waitDone(t, leader.mgr, job.ID)
	data, err := os.ReadFile(leader.store.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, ref) {
		t.Fatalf("post-kill checkpoint differs from reference (%d vs %d bytes)", len(data), len(ref))
	}
}

// TestHangingPeerLeaseExpires covers the heartbeat watchdog: a peer that
// accepts a lease and then never sends a byte must have its range
// reclaimed once the lease TTL has passed on the daemon's clock, the job
// must still finish, and the results must stay byte-identical.
func TestHangingPeerLeaseExpires(t *testing.T) {
	sp := e2eSpec()
	opts := shard.Options{LeaseCells: 4}
	ref, _, _ := runSharded(t, sp, opts)

	clk := useFakeClock(t)
	hung := make(chan struct{}, 1)
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		select {
		case hung <- struct{}{}:
		default:
		}
		<-r.Context().Done() // never a byte, never a heartbeat
	}))
	defer hang.Close()

	leader := newDaemon(t, 4)
	pool := shard.New([]string{hang.URL}, opts)
	leader.mgr.SetExecutorProvider(pool)
	job, _, err := leader.mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	<-hung // the lease's watchdog is armed before its request goes out
	clk.Advance(45 * time.Second)
	waitDone(t, leader.mgr, job.ID)
	data, err := os.ReadFile(leader.store.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, ref) {
		t.Fatalf("post-expiry checkpoint differs from reference (%d vs %d bytes)", len(data), len(ref))
	}
	if st := pool.Stats(); st.LeaseFailures == 0 {
		t.Fatalf("no lease failure recorded after hang: %+v", st)
	}
}

// TestThrottledPeerIsRetriedNotRetired: a follower shedding load with
// 429 + Retry-After is healthy, not dead — the leader must back off and
// retry the lease rather than counting a failure and abandoning the
// peer, and results stay byte-identical. The served stream opens with a
// keep-alive line, which the leader skips.
func TestThrottledPeerIsRetriedNotRetired(t *testing.T) {
	sp := e2eSpec()
	opts := shard.Options{LeaseCells: 3}
	ref, _, _ := runSharded(t, sp, opts)

	peer := newDaemon(t, 2)
	var throttled atomic.Uint64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Shed the first two lease attempts, then serve normally.
		if throttled.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0") // clamped to 100ms by the client
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		r2, err := http.NewRequestWithContext(r.Context(), r.Method, peer.srv.URL+r.URL.Path, r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		resp, err := http.DefaultClient.Do(r2)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		// A keep-alive line ahead of the results, as a follower sends
		// after a quiet interval: the leader must skip it.
		io.WriteString(w, "\n") //nolint:errcheck
		buf := make([]byte, 4096)
		flusher, _ := w.(http.Flusher)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
			}
			if rerr != nil {
				return
			}
		}
	}))
	defer proxy.Close()

	leader := newDaemon(t, 4)
	pool := shard.New([]string{proxy.URL}, shard.Options{LeaseCells: 3})
	leader.mgr.SetExecutorProvider(pool)
	job, _, err := leader.mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, leader.mgr, job.ID)
	data, err := os.ReadFile(leader.store.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, ref) {
		t.Fatalf("throttled-peer checkpoint differs (%d vs %d bytes)", len(data), len(ref))
	}
	st := pool.Stats()
	if st.LeaseFailures != 0 {
		t.Fatalf("throttling was counted as %d lease failures", st.LeaseFailures)
	}
	if st.RemoteCells == 0 {
		t.Fatal("throttled peer never served cells; it was retired instead of retried")
	}
	if throttled.Load() < 3 {
		t.Fatalf("proxy saw %d lease attempts; retry path not exercised", throttled.Load())
	}
}

// TestDaemonJoinsLiveCluster is the membership acceptance criterion: a
// daemon booted after the cluster is already running sweeps announces
// itself to one seed, appears in the leader's member table, receives
// leases for the next job without any restart of the existing daemons,
// learns the rest of the cluster by one-hop gossip — and every
// checkpoint stays byte-identical to the lone-daemon runs.
func TestDaemonJoinsLiveCluster(t *testing.T) {
	sp1 := e2eSpec()
	sp2 := e2eSpec()
	sp2.N = 18 // a second, distinct job for the post-join phase
	sp2.Normalize()
	opts := shard.Options{LeaseCells: 1}
	ref1, _, _ := runSharded(t, sp1, opts)
	ref2, _, _ := runSharded(t, sp2, opts)

	clk := useFakeClock(t)
	f1, _ := newClusterDaemon(t, 2)
	leader, leaderReg := newClusterDaemon(t, 4, f1.srv.URL)
	pool := shard.NewFromSource(leaderReg, opts)
	leader.mgr.SetExecutorProvider(pool)

	// Phase 1: the two-daemon cluster runs a sweep as usual.
	job1, _, err := leader.mgr.Submit(sp1)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, leader.mgr, job1.ID)
	got1, err := os.ReadFile(leader.store.ResultsPath(job1.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, ref1) {
		t.Fatalf("pre-join checkpoint differs from lone-daemon run (%d vs %d bytes)", len(got1), len(ref1))
	}
	if f1.leases.Load() == 0 {
		t.Fatal("seeded follower served no leases")
	}

	// Phase 2: a third daemon boots with only the leader as its seed and
	// announces itself — no existing daemon restarts. Each probe tick
	// returns once every registry has finished its previous cycle.
	joiner, joinerReg := newClusterDaemon(t, 2, leader.srv.URL)
	clk.stepUntil(t, 5*time.Second, 10, "the leader registers the joiner", func() bool {
		return slices.Contains(leaderReg.AlivePeers(), joiner.srv.URL)
	})
	// One-hop gossip: the joiner pulls the leader's table and learns the
	// original follower without ever being told about it.
	clk.stepUntil(t, 5*time.Second, 10, "the joiner learns the follower by gossip", func() bool {
		return slices.Contains(joinerReg.AlivePeers(), f1.srv.URL)
	})

	// Phase 3: the next job leases to the joiner. Until the joiner has
	// been asked for a range, the leader's local pool has no worker token
	// and f1 holds the range it took, so neither can empty the job's
	// queue first, however the three are scheduled.
	gate := make(chan struct{}, 4) // the leader's worker tokens, held back
	joined := make(chan struct{})
	var once sync.Once
	signal := func() {
		once.Do(func() {
			close(joined)
			for range cap(gate) {
				gate <- struct{}{}
			}
		})
	}
	hold := func() { <-joined }
	joiner.onLease.Store(&signal)
	f1.onLease.Store(&hold)
	t.Cleanup(signal) // runs before the servers close: a held f1 is let go
	leader.mgr.SetExecutorProvider(gatedLocal{pool, gate})
	job2, _, err := leader.mgr.Submit(sp2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, leader.mgr, job2.ID)
	got2, err := os.ReadFile(leader.store.ResultsPath(job2.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, ref2) {
		t.Fatalf("post-join checkpoint differs from lone-daemon run (%d vs %d bytes)", len(got2), len(ref2))
	}
	if joiner.leases.Load() == 0 {
		t.Fatal("joiner served no leases after joining the live cluster")
	}
	// The joiner's range came back as remote cells, and /metrics says so.
	resp, err := http.Get(leader.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^sweepd_remote_cells_total [1-9]`).Match(metrics) {
		t.Fatalf("leader reports no remote cells:\n%s", metrics)
	}
}

// gatedLocal is a pool whose executors draw local worker tokens from gate
// instead of the manager's: the local consumer computes nothing while the
// gate is empty, and peers lease as usual.
type gatedLocal struct {
	pool *shard.Pool
	gate chan struct{}
}

func (g gatedLocal) ExecutorFor(sp sweepd.Spec, onRemote func(cells int)) dynamics.Executor {
	if exec := g.pool.ExecutorFor(sp, onRemote); exec != nil {
		return gatedExecutor{exec, g.gate}
	}
	return nil
}

type gatedExecutor struct {
	dynamics.Executor
	gate chan struct{}
}

func (e gatedExecutor) Execute(ctx context.Context, req dynamics.ExecRequest) <-chan dynamics.IndexedResult {
	req.Gate = e.gate
	return e.Executor.Execute(ctx, req)
}

// TestDeadPeerSkippedBySubsequentJobs: a peer that dies mid-sweep is
// retired for that job (reclaim, as before) AND — via the pool's
// failure report to the registry — excluded from the next job's peer
// snapshot entirely, so later jobs never stall on the corpse. Results
// stay byte-identical throughout.
func TestDeadPeerSkippedBySubsequentJobs(t *testing.T) {
	sp1 := sweepd.Spec{
		N:      20,
		Alphas: []float64{0.3, 0.5, 1, 2, 5},
		Ks:     []int{2, 3, 1000},
		Seeds:  4, // 60 cells: long enough to kill mid-flight
	}
	sp1.Normalize()
	sp2 := e2eSpec()
	opts := shard.Options{LeaseCells: 2}
	ref1, _, _ := runSharded(t, sp1, opts)
	ref2, _, _ := runSharded(t, sp2, opts)

	peer := newDaemon(t, 1) // slow follower: leases outlive the kill window
	leased := peer.leased()
	leader := newDaemon(t, 4)
	// The registry stays passive (Start is never called): seeds begin
	// alive, so the only path that can demote the peer in this test is
	// the pool's lease-failure report — exactly the mechanism under test.
	reg := cluster.New(cluster.Options{
		Seeds:         []string{peer.srv.URL},
		ProbeInterval: time.Hour,
	})
	pool := shard.NewFromSource(reg, opts)
	leader.mgr.SetExecutorProvider(pool)

	job1, _, err := leader.mgr.Submit(sp1)
	if err != nil {
		t.Fatal(err)
	}
	<-leased
	peer.srv.CloseClientConnections()
	peer.srv.Close()

	waitDone(t, leader.mgr, job1.ID)
	got1, err := os.ReadFile(leader.store.ResultsPath(job1.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, ref1) {
		t.Fatalf("post-kill checkpoint differs from reference (%d vs %d bytes)", len(got1), len(ref1))
	}
	if slices.Contains(reg.AlivePeers(), peer.srv.URL) {
		t.Fatalf("dead peer still alive in registry: %+v", reg.Members())
	}

	// The next job must not issue a single lease: its snapshot is empty,
	// so it runs purely locally instead of stalling on the corpse.
	issuedBefore := pool.Stats().LeasesIssued
	job2, _, err := leader.mgr.Submit(sp2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, leader.mgr, job2.ID)
	if issued := pool.Stats().LeasesIssued; issued != issuedBefore {
		t.Fatalf("job after peer death issued %d new leases", issued-issuedBefore)
	}
	got2, err := os.ReadFile(leader.store.ResultsPath(job2.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, ref2) {
		t.Fatalf("post-death checkpoint differs from reference (%d vs %d bytes)", len(got2), len(ref2))
	}
}

// TestShardedResumeAfterLeaderRestart composes sharding with the resume
// guarantee: a leader canceled mid-sweep and reopened over the same
// store (still sharded) finishes byte-identical to the lone-daemon run.
func TestShardedResumeAfterLeaderRestart(t *testing.T) {
	sp := e2eSpec()
	opts := shard.Options{LeaseCells: 3}
	ref, _, _ := runSharded(t, sp, opts)

	peer := newDaemon(t, 2)
	dir := t.TempDir()
	store1, err := sweepd.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := sweepd.NewManager(store1, sweepd.NewCache(4096), 2)
	taken := make(chan struct{})
	mgr1.SetExecutorProvider(firstCells{shard.New([]string{peer.srv.URL}, opts), 3, taken})
	job, _, err := mgr1.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	<-taken
	mgr1.Close()

	store2, err := sweepd.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := sweepd.NewManager(store2, sweepd.NewCache(4096), 4)
	mgr2.SetExecutorProvider(shard.New([]string{peer.srv.URL}, opts))
	defer mgr2.Close()
	if err := mgr2.Resume(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, mgr2, job.ID)
	data, err := os.ReadFile(store2.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, ref) {
		t.Fatalf("resumed sharded checkpoint differs from reference (%d vs %d bytes)", len(data), len(ref))
	}
}

// TestDialectSweepsShardByteIdentical extends the acceptance criterion
// to the dialect seam: a swap-dialect sweep, a grid-family sweep, and a
// large-neighborhood sweep over random-regular starts each finish with
// checkpoints byte-identical to a lone daemon's when sharded across two
// peers — the lease/shard path contains no dialect-specific code, so a
// registry entry is all a new workload needs to go distributed.
func TestDialectSweepsShardByteIdentical(t *testing.T) {
	specs := []struct {
		name string
		sp   sweepd.Spec
	}{
		{"swap-dialect", sweepd.Spec{
			Dialect: "swap", N: 16,
			Alphas: []float64{0.5, 1}, Ks: []int{2, 3}, Seeds: 3,
			MaxRounds: 60, CycleCheckAfter: 60,
		}},
		{"grid-family", sweepd.Spec{
			Graph: "grid-delete", N: 18, P: 0.25,
			Alphas: []float64{0.5, 1, 2}, Ks: []int{2, 1000}, Seeds: 2,
		}},
		{"large-neighborhood-random-regular", sweepd.Spec{
			Dialect: "large-neighborhood", Variant: "sum",
			Graph: "random-regular", N: 12, Q: 3,
			Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 3,
		}},
	}
	opts := shard.Options{LeaseCells: 3}
	for _, c := range specs {
		t.Run(c.name, func(t *testing.T) {
			sp := c.sp
			sp.Normalize()
			if err := sp.Validate(); err != nil {
				t.Fatal(err)
			}
			ref, refJob, _ := runSharded(t, sp, opts) // zero peers
			if refJob.RemoteCells != 0 || len(ref) == 0 {
				t.Fatalf("bad reference run: %d remote cells, %d bytes", refJob.RemoteCells, len(ref))
			}
			pa, pb := newDaemon(t, 2), newDaemon(t, 2)
			got, job, _ := runSharded(t, sp, opts, pa, pb)
			if !bytes.Equal(got, ref) {
				t.Fatalf("2-peer checkpoint differs from lone-daemon run (%d vs %d bytes)", len(got), len(ref))
			}
			if pa.leases.Load()+pb.leases.Load() == 0 {
				t.Fatal("neither peer served a lease; the sharded path was not exercised")
			}
			if job.RemoteCells == 0 {
				t.Fatal("job snapshot counted no remote cells")
			}
		})
	}
}

// firstCells is a pool for stopping a sweep part-way: its executors
// hand the pool's executor the job's cells one at a time in canonical
// order, close taken once the sweep has taken the (k+1)-th — the sweep
// emits in order, so by then it has checkpointed the first k — and
// compute nothing more until the sweep is canceled.
type firstCells struct {
	pool  *shard.Pool
	k     int
	taken chan struct{}
}

func (f firstCells) ExecutorFor(sp sweepd.Spec, onRemote func(cells int)) dynamics.Executor {
	return firstCellsExec{f, f.pool.ExecutorFor(sp, onRemote)}
}

type firstCellsExec struct {
	firstCells
	exec dynamics.Executor
}

func (e firstCellsExec) Execute(ctx context.Context, req dynamics.ExecRequest) <-chan dynamics.IndexedResult {
	out := make(chan dynamics.IndexedResult)
	go func() {
		defer close(out)
		for _, idx := range req.Todo[:e.k+1] {
			one := req
			one.Todo = []int{idx}
			for ir := range e.exec.Execute(ctx, one) {
				select {
				case out <- ir:
				case <-ctx.Done():
					return
				}
			}
		}
		close(e.taken)
		<-ctx.Done()
	}()
	return out
}
