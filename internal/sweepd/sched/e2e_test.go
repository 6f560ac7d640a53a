package sched_test

// End-to-end tests for the cluster scheduler: real daemons assembled by
// internal/sweepd/node, the assembly cmd/ncg-server runs (sharding, disk
// cache and replication included), each on its own loopback listener —
// proving the acceptance criteria: a sweep POSTed to a busy member is led
// by that member, a killed leader's job is adopted and finishes with a
// byte-identical checkpoint, and a revived ex-leader cedes to the
// adopter's higher lease generation instead of split-braining.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dynamics"
	"repro/internal/sweepd"
	"repro/internal/sweepd/node"
	"repro/internal/sweepd/shard"
)

// daemonClock and installClock bind clock_test.go's fake to the daemon's
// clock.
type daemonClock = sweepd.Clock

var installClock = sweepd.UseClock

// The failover tests run every daemon of a test on one fake clock (see
// clock_test.go) at ncg-server's default cadence, and step it one
// scheduler heartbeat at a time: the 30s adoption window's 2s beat. A
// step returns once every loop has finished its previous tick's work.
const beat = 2 * time.Second

// daemon is one in-process ncg-server over dir, serving at url.
type daemon struct {
	*node.Node
	dir  string
	url  string
	dead sync.Once
}

func newSchedDaemon(t *testing.T, workers int, seeds ...string) *daemon {
	t.Helper()
	d, err := buildDaemon(t.TempDir(), workers, 0, nil, seeds...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.kill)
	return d
}

// buildDaemon boots ncg-server's defaults over dir, advertising its
// loopback address. A non-zero probe replaces the probe interval, and a
// non-nil exec the lease pool before the store's jobs resume.
func buildDaemon(dir string, workers int, probe time.Duration, exec sweepd.ExecutorProvider, seeds ...string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, url: "http://" + ln.Addr().String()}
	cfg := node.DefaultConfig()
	cfg.Data = dir
	cfg.Workers = workers
	cfg.Peers = strings.Join(seeds, ",")
	cfg.Advertise = d.url
	if probe > 0 {
		cfg.ProbeInterval = probe
	}
	if d.Node, err = node.New(cfg); err != nil {
		ln.Close()
		return nil, err
	}
	if exec != nil {
		d.Manager.SetExecutorProvider(exec)
	}
	d.Serve(ln)
	return d, nil
}

// kill tears the daemon down abruptly and idempotently: in-flight
// client connections die mid-stream, probes start failing, heartbeats
// stop, and the manager cancels its runners — the closest an in-process
// test gets to kill -9. The checkpoint stays on disk, resumable.
func (d *daemon) kill() {
	d.dead.Do(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		d.Close(ctx)
	})
}

// leads reports whether d's lease table names owner as the job's leader.
func (d *daemon) leads(jobID, owner string) bool {
	for _, l := range d.Registry.Leases() {
		if l.JobID == jobID && l.Owner == owner {
			return true
		}
	}
	return false
}

// finds reports whether d's registry holds member url in state.
func (d *daemon) finds(url, state string) bool {
	for _, m := range d.Registry.Members() {
		if m.URL == url {
			return m.State == state
		}
	}
	return false
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

// waitMesh steps the clock until every daemon has sampled a load for
// every other — the point after which placement and adoption elections
// see the full cluster.
func waitMesh(t *testing.T, clk *fakeClock, step time.Duration, ds ...*daemon) {
	t.Helper()
	clk.stepUntil(t, step, 50, "the mesh", func() bool {
		for _, d := range ds {
			if len(d.Registry.AliveLoads()) < len(ds)-1 {
				return false
			}
		}
		return true
	})
}

// runReference computes the spec on a lone daemon and returns the
// finished checkpoint bytes — the byte-identity baseline.
func runReference(t *testing.T, sp sweepd.Spec) []byte {
	t.Helper()
	ref := newSchedDaemon(t, 4)
	defer ref.kill()
	job, _, err := ref.Manager.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ref.Manager, job.ID)
	data, err := os.ReadFile(ref.Store.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("reference checkpoint is empty")
	}
	return data
}

// TestSubmitLeadsWhereReceived: POST /sweeps to the one busy daemon of
// a three-member cluster, whose two peers advertise idle loads, must be
// led by that daemon — 202 with no X-Sweep-Placement, the job on its
// manager and on neither peer's — and the checkpoint must be
// byte-identical to a lone-daemon run.
func TestSubmitLeadsWhereReceived(t *testing.T) {
	sp := sweepd.Spec{
		N:      16,
		Alphas: []float64{0.5, 1, 2},
		Ks:     []int{2, 1000},
		Seeds:  4, // 24 cells
	}
	sp.Normalize()
	clk := useFakeClock(t)
	ref := runReference(t, sp)

	a := newSchedDaemon(t, 1)
	b := newSchedDaemon(t, 2, a.url)
	c := newSchedDaemon(t, 2, a.url)
	waitMesh(t, clk, beat, a, b, c)

	// A job whose cells wait on a gate nobody feeds keeps a busy until the
	// test ends; every other job runs on a's own worker.
	busy := sweepd.Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2}
	busy.Normalize()
	a.Manager.SetExecutorProvider(holdOne{id: busy.ID(), gate: make(chan struct{})})
	if _, _, err := a.Manager.Submit(busy); err != nil {
		t.Fatal(err)
	}
	if a.Manager.Load().QueueDepth == 0 {
		t.Fatal("the held job does not count as load")
	}

	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(a.url+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job sweepd.Job
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || job.ID != sp.ID() {
		t.Fatalf("submit via busy member = %s, job %q; want 202, job %q", resp.Status, job.ID, sp.ID())
	}
	if placed := resp.Header.Get("X-Sweep-Placement"); placed != "" {
		t.Fatalf("X-Sweep-Placement = %q, want none", placed)
	}

	// Following the job blocks until it is terminal.
	resp, err = http.Get(a.url + "/sweeps/" + job.ID + "/results?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if st := resp.Trailer.Get("X-Sweep-Status"); st != string(sweepd.StatusDone) {
		t.Fatalf("follow on the receiving member ended with status %q", st)
	}
	for _, peer := range []*daemon{b, c} {
		if _, ok := peer.Manager.Get(job.ID); ok {
			t.Fatalf("job admitted on peer %s too", peer.url)
		}
	}
	data, err := os.ReadFile(a.Store.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, ref) {
		t.Fatalf("checkpoint differs from lone-daemon run (%d vs %d bytes)", len(data), len(ref))
	}
}

// holdOne holds the cells of one job on gate and runs every other job on
// the local pool.
type holdOne struct {
	id   string
	gate chan struct{}
}

func (h holdOne) ExecutorFor(sp sweepd.Spec, _ func(int)) dynamics.Executor {
	if sp.ID() == h.id {
		return heldExecutor{h.gate}
	}
	return nil
}

// TestLeaderDeathAdoptionAndZombieCede is the failover acceptance
// criterion end to end: kill the leader mid-sweep, a surviving peer
// adopts the job once its lease is stale and re-leases it at a higher
// generation, the leader revived over its old store cedes to that
// generation (LeadershipLost ticks, the adopter keeps the job) instead of
// split-braining, and the adopter finishes with a byte-identical
// checkpoint. Every member holds the job on a gate, so it is running at
// each step however fast the kernel is. Only the adopter's is let go,
// and it runs on the production lease pool, which must lease cells to
// the other survivor: the adopted run is a sharded one.
func TestLeaderDeathAdoptionAndZombieCede(t *testing.T) {
	sp := sweepd.Spec{
		N:      16,
		Alphas: []float64{0.5, 1, 2},
		Ks:     []int{2, 1000},
		Seeds:  4, // 24 cells
	}
	sp.Normalize()
	clk := useFakeClock(t)
	ref := runReference(t, sp)

	leader := heldExecutor{make(chan struct{})} // never fed
	release := make(chan struct{}, 1)           // fed once the zombie has ceded
	a := newSchedDaemon(t, 1)
	a.Manager.SetExecutorProvider(leader)
	b := newSchedDaemon(t, 2, a.url)
	c := newSchedDaemon(t, 2, a.url)
	pools := map[*daemon]*shard.Pool{}
	for _, d := range []*daemon{b, c} {
		pools[d] = shard.NewFromSource(d.Registry, shard.Options{LeaseCells: 4})
		d.Manager.SetExecutorProvider(leaseFirst{pools[d], release})
	}
	waitMesh(t, clk, beat, a, b, c)

	job, _, err := a.Manager.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	// Kill only once both survivors hold the leader's lease — the spec
	// travels inside it, so adoption needs nothing from A's disk.
	clk.stepUntil(t, beat, 30, "the leader's lease reaches both survivors", func() bool {
		return b.leads(job.ID, a.url) && c.leads(job.ID, a.url)
	})
	a.kill()

	// Three failed probes take A down, and 30s without a refresh make its
	// lease stale: one survivor adopts and re-leases at generation 2.
	clk.stepUntil(t, beat, 60, "a survivor adopts", func() bool {
		return b.Scheduler.Stats().Adoptions+c.Scheduler.Stats().Adoptions > 0
	})
	adopter := c
	if b.Scheduler.Stats().Adoptions > 0 {
		adopter = b
	}
	if ls := adopter.Registry.Leases(); len(ls) != 1 || ls[0].JobID != job.ID || ls[0].Owner != adopter.url || ls[0].Generation != 2 {
		t.Fatalf("adopter's lease table = %+v, want the job at generation 2 under %s", ls, adopter.url)
	}

	// Revive the dead leader over its old store: it resumes the job,
	// heartbeats its stale generation, loses the comparison, and cedes.
	zombie, err := buildDaemon(a.dir, 1, 0, leader, b.url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(zombie.kill)
	clk.stepUntil(t, beat, 30, "the zombie cedes", func() bool {
		return zombie.Scheduler.Stats().LeadershipLost > 0
	})

	// The adopter finishes the job, sharded, byte-identically to the
	// reference.
	release <- struct{}{}
	waitDone(t, adopter.Manager, job.ID)
	if st := pools[adopter].Stats(); st.RemoteCells == 0 {
		t.Fatalf("the adopted run leased no cells: %+v", st)
	}
	data, err := os.ReadFile(adopter.Store.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, ref) {
		t.Fatalf("adopted checkpoint differs from reference (%d vs %d bytes)", len(data), len(ref))
	}

	// No split-brain: any lease still standing for the job names the
	// adopter's generation, never the zombie's stale one.
	if adopter.leads(job.ID, zombie.url) {
		t.Fatalf("zombie reclaimed the lease: %+v", adopter.Registry.Leases())
	}
}

// heldExecutor runs a job's cells only on tokens from gate, so the job
// stays running, computing nothing, until the test puts one in.
type heldExecutor struct{ gate chan struct{} }

func (h heldExecutor) ExecutorFor(sweepd.Spec, func(int)) dynamics.Executor { return h }

func (h heldExecutor) Execute(ctx context.Context, req dynamics.ExecRequest) <-chan dynamics.IndexedResult {
	req.Gate = h.gate
	return dynamics.LocalExecutor{}.Execute(ctx, req)
}

// leaseFirst holds a job until the test feeds gate, then runs it on a
// lease pool whose local share waits for the first cells a peer
// delivers, so the job is sharded however fast the local kernel is.
type leaseFirst struct {
	pool *shard.Pool
	gate chan struct{}
}

func (l leaseFirst) ExecutorFor(sp sweepd.Spec, onRemote func(int)) dynamics.Executor {
	local := make(chan struct{}, 1)
	var once sync.Once
	exec := l.pool.ExecutorFor(sp, func(cells int) {
		onRemote(cells)
		once.Do(func() { local <- struct{}{} })
	})
	if exec == nil {
		return nil // no peer alive: the job runs locally and leases nothing
	}
	return leaseFirstExec{l.gate, local, exec}
}

type leaseFirstExec struct {
	gate, local chan struct{}
	exec        dynamics.Executor
}

func (e leaseFirstExec) Execute(ctx context.Context, req dynamics.ExecRequest) <-chan dynamics.IndexedResult {
	out := make(chan dynamics.IndexedResult)
	go func() {
		defer close(out)
		select {
		case <-e.gate:
		case <-ctx.Done():
			return
		}
		req.Gate = e.local
		for ir := range e.exec.Execute(ctx, req) {
			select {
			case out <- ir:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// TestLeaseHeldBetweenHeartbeats runs at bench/daemon.go's cadence, a
// 100 ms probe under the scheduler's default 2 s heartbeat, stepping the
// clock one probe at a time. Once the first heartbeat's lease has reached
// every member, the leader and both peers must hold it at every step
// across two heartbeat periods and then some — a leader killed at any
// instant is adoptable — and once the job has ended the lease must leave
// all three.
func TestLeaseHeldBetweenHeartbeats(t *testing.T) {
	const probe = 100 * time.Millisecond
	clk := useFakeClock(t)
	var ds []*daemon
	for i := 0; i < 3; i++ {
		var seeds []string
		if i > 0 {
			seeds = []string{ds[0].url}
		}
		d, err := buildDaemon(t.TempDir(), 1, probe, nil, seeds...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.kill)
		ds = append(ds, d)
	}
	leader := ds[0]
	waitMesh(t, clk, probe, ds...)

	gate := make(chan struct{}, 1)
	leader.Manager.SetExecutorProvider(heldExecutor{gate})
	sp := sweepd.Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2}
	sp.Normalize()
	job, _, err := leader.Manager.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	heldBy := func() (n int) {
		for _, d := range ds {
			if d.leads(job.ID, leader.url) {
				n++
			}
		}
		return n
	}
	clk.stepUntil(t, probe, 60, "the first heartbeat's lease reaches every member", func() bool { return heldBy() == len(ds) })

	const steps = 42 // 4.2 s: every gap between refreshes, twice
	for i := 1; i <= steps; i++ {
		clk.Advance(probe)
		for _, d := range ds {
			if !d.leads(job.ID, leader.url) {
				t.Fatalf("%s dropped the running job's lease %v after it reached every member", d.url, time.Duration(i)*probe)
			}
		}
	}

	// The job ends: its leader drops the lease at the next heartbeat, and
	// each peer on a pull from the leader. A peer that pulls the other
	// before that one has dropped it takes the lease back as hearsay, so
	// the last copy can take a few probes more.
	gate <- struct{}{}
	waitDone(t, leader.Manager, job.ID)
	clk.stepUntil(t, probe, 300, "the finished job's lease leaves every member", func() bool { return heldBy() == 0 })
}
