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
)

// timing is a daemon's -probe-interval and -adopt-after; the scheduler
// heartbeats every fifteenth of the latter.
type timing struct{ probe, adoptAfter time.Duration }

// fast is the cadence of the failover tests: a 20ms heartbeat, so every
// round trip of the protocol lands well inside the adoption window.
var fast = timing{probe: 20 * time.Millisecond, adoptAfter: 300 * time.Millisecond}

// daemon is one in-process ncg-server over dir, serving at url.
type daemon struct {
	*node.Node
	dir  string
	url  string
	dead sync.Once
}

func newSchedDaemon(t *testing.T, workers int, seeds ...string) *daemon {
	t.Helper()
	d, err := buildDaemon(t.TempDir(), workers, fast, seeds...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.kill)
	return d
}

// buildDaemon boots ncg-server's defaults over dir at the given cadence,
// advertising its loopback address.
func buildDaemon(dir string, workers int, tm timing, seeds ...string) (*daemon, error) {
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
	cfg.ProbeInterval = tm.probe
	cfg.AdoptAfter = tm.adoptAfter
	if d.Node, err = node.New(cfg); err != nil {
		ln.Close()
		return nil, err
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

// waitMesh blocks until every daemon has sampled a load for every other
// — the point after which placement and adoption elections see the full
// cluster.
func waitMesh(t *testing.T, ds ...*daemon) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for _, d := range ds {
		for len(d.Registry.AliveLoads()) < len(ds)-1 {
			if time.Now().After(deadline) {
				t.Fatalf("mesh never formed: %s sees loads %+v", d.url, d.Registry.AliveLoads())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// runReference computes the spec on a lone daemon and returns the
// finished checkpoint bytes — the byte-identity baseline.
func runReference(t *testing.T, sp sweepd.Spec) []byte {
	t.Helper()
	ref := newSchedDaemon(t, 4)
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
	ref := runReference(t, sp)

	a := newSchedDaemon(t, 1)
	b := newSchedDaemon(t, 2, a.url)
	c := newSchedDaemon(t, 2, a.url)
	waitMesh(t, a, b, c)

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
// adopts the job within the adoption window and finishes it with a
// byte-identical checkpoint, and the leader revived over its old store
// cedes to the adopter's higher lease generation (LeadershipLost ticks,
// the adopter keeps the job) instead of split-braining.
func TestLeaderDeathAdoptionAndZombieCede(t *testing.T) {
	sp := sweepd.Spec{
		// Sized by exact-MAX cell cost: the sweep must outlive the kill,
		// adoption and zombie windows, so it is ~3.5ms/cell × 300 cells,
		// leased over every alive member's workers (five before the kill,
		// four after it). A faster kernel or a wider cluster shrinks those
		// windows; the two "spec too small" guards below say so when it has.
		N:      100,
		Alphas: []float64{0.3, 0.5, 1, 2, 5},
		Ks:     []int{2, 3, 1000},
		Seeds:  20,
	}
	sp.Normalize()
	ref := runReference(t, sp)

	a := newSchedDaemon(t, 1) // slow leader: one worker stretches the sweep
	b := newSchedDaemon(t, 2, a.url)
	c := newSchedDaemon(t, 2, a.url)
	waitMesh(t, a, b, c)

	job, _, err := a.Manager.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	// Kill only once both survivors hold the leader's lease — the spec
	// travels inside it, so adoption needs nothing from A's disk.
	deadline := time.Now().Add(30 * time.Second)
	for _, survivor := range []*daemon{b, c} {
		for {
			leased := false
			for _, l := range survivor.Registry.Leases() {
				if l.JobID == job.ID && l.Owner == a.url {
					leased = true
				}
			}
			if leased {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("lease never reached %s", survivor.url)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if j, _ := a.Manager.Get(job.ID); j.Status != sweepd.StatusRunning {
		t.Fatalf("leader job is %s before the kill; spec too small to test failover", j.Status)
	}
	a.kill()

	// One survivor must adopt within the adoption window (plus probe and
	// heartbeat slack) and re-lease the job at a higher generation.
	adoptDeadline := time.Now().Add(30 * time.Second)
	for b.Scheduler.Stats().Adoptions+c.Scheduler.Stats().Adoptions == 0 {
		if time.Now().After(adoptDeadline) {
			t.Fatalf("no adoption: b=%+v c=%+v leases=%+v", b.Scheduler.Stats(), c.Scheduler.Stats(), b.Registry.Leases())
		}
		time.Sleep(2 * time.Millisecond)
	}

	adopter := c
	if b.Scheduler.Stats().Adoptions > 0 {
		adopter = b
	}

	// Revive the dead leader over its old store while the adopted run is
	// still going: it resumes the job, heartbeats its stale generation,
	// loses the comparison, and cedes.
	if j, _ := adopter.Manager.Get(job.ID); j.Status != sweepd.StatusRunning {
		t.Fatalf("adopted run already finished (%s); spec too small to test the cede", j.Status)
	}
	zombie, err := buildDaemon(a.dir, 1, fast, b.url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(zombie.kill)
	zombieDeadline := time.Now().Add(30 * time.Second)
	for zombie.Scheduler.Stats().LeadershipLost == 0 {
		if time.Now().After(zombieDeadline) {
			t.Fatalf("zombie never ceded: %+v leases=%+v", zombie.Scheduler.Stats(), zombie.Registry.Leases())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The adopter finishes the job byte-identically to the reference.
	waitDone(t, adopter.Manager, job.ID)
	data, err := os.ReadFile(adopter.Store.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, ref) {
		t.Fatalf("adopted checkpoint differs from reference (%d vs %d bytes)", len(data), len(ref))
	}

	// No split-brain: any lease still standing for the job names the
	// adopter's generation, never the zombie's stale one.
	for _, l := range adopter.Registry.Leases() {
		if l.JobID == job.ID && l.Owner == zombie.url {
			t.Fatalf("zombie reclaimed the lease: %+v", l)
		}
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

// TestLeaseHeldBetweenHeartbeats runs at bench/daemon.go's cadence, a
// 100 ms probe under the scheduler's default 2 s heartbeat. Once the
// first heartbeat's lease has reached every member, the leader and both
// peers must hold it at every sample until the job ends — a leader
// killed at any instant is adoptable — and once the job has ended the
// lease must leave all three.
func TestLeaseHeldBetweenHeartbeats(t *testing.T) {
	bench := timing{probe: 100 * time.Millisecond, adoptAfter: node.DefaultConfig().AdoptAfter}
	var ds []*daemon
	for i := 0; i < 3; i++ {
		var seeds []string
		if i > 0 {
			seeds = []string{ds[0].url}
		}
		d, err := buildDaemon(t.TempDir(), 1, bench, seeds...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.kill)
		ds = append(ds, d)
	}
	leader := ds[0]
	waitMesh(t, ds...)

	gate := make(chan struct{}, 1)
	leader.Manager.SetExecutorProvider(heldExecutor{gate})
	sp := sweepd.Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2}
	sp.Normalize()
	job, _, err := leader.Manager.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	held := func(d *daemon) bool {
		for _, l := range d.Registry.Leases() {
			if l.JobID == job.ID && l.Owner == leader.url {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(30 * time.Second)
	for !held(ds[0]) || !held(ds[1]) || !held(ds[2]) {
		if time.Now().After(deadline) {
			t.Fatal("the first heartbeat's lease never reached every member")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Two heartbeat periods and then some: every gap between refreshes.
	const window = 4200 * time.Millisecond
	samples, orphaned, holds := 0, 0, make([]int, len(ds))
	for end := time.Now().Add(window); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		samples++
		for i, d := range ds {
			if held(d) {
				holds[i]++
			}
		}
		if !held(ds[1]) && !held(ds[2]) {
			orphaned++ // a leader killed now would never be adopted
		}
	}
	t.Logf("%d samples over %v of a running job: the lease was held by the leader in %d, by the peers in %d and %d, by neither peer in %d",
		samples, window, holds[0], holds[1], holds[2], orphaned)
	for i, n := range holds {
		if n != samples {
			t.Errorf("%s held the running job's lease in %d of %d samples", ds[i].url, n, samples)
		}
	}

	// The job ends: its leader drops the lease at the next heartbeat, and
	// each peer on its next pull from the leader.
	gate <- struct{}{}
	waitDone(t, leader.Manager, job.ID)
	deadline = time.Now().Add(30 * time.Second)
	for held(ds[0]) || held(ds[1]) || held(ds[2]) {
		if time.Now().After(deadline) {
			t.Fatal("the finished job's lease never left every member")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
