package sweepd

// Tests for the scheduler-facing HTTP surface: the /peer/jobs and
// /peer/jobs/claim endpoints, the lease/tombstone gossip payload, and
// POST /sweeps routed through a Submitter.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeLeaseMembership is fakeMembership plus a generation-guarded
// lease table — the HTTP layer's view of a scheduling-enabled
// cluster.Registry.
type fakeLeaseMembership struct {
	fakeMembership
	lmu    sync.Mutex
	leases map[string]JobLease
	tombs  []Tombstone
}

func (f *fakeLeaseMembership) UpdateLease(l JobLease) bool {
	f.lmu.Lock()
	defer f.lmu.Unlock()
	if f.leases == nil {
		f.leases = make(map[string]JobLease)
	}
	if cur, ok := f.leases[l.JobID]; ok && l.Generation < cur.Generation {
		return false
	}
	f.leases[l.JobID] = l
	return true
}

func (f *fakeLeaseMembership) DropLease(jobID string, gen uint64) {
	f.lmu.Lock()
	defer f.lmu.Unlock()
	if cur, ok := f.leases[jobID]; ok && cur.Generation <= gen {
		delete(f.leases, jobID)
	}
}

func (f *fakeLeaseMembership) Leases() []JobLease {
	f.lmu.Lock()
	defer f.lmu.Unlock()
	out := make([]JobLease, 0, len(f.leases))
	for _, l := range f.leases {
		out = append(out, l)
	}
	return out
}

func (f *fakeLeaseMembership) Tombstones() []Tombstone {
	f.lmu.Lock()
	defer f.lmu.Unlock()
	return append([]Tombstone(nil), f.tombs...)
}

// TestPeerSubmitRunsLocally: /peer/jobs is a plain local submission —
// idempotent like POST /sweeps (202 new, 200 duplicate), 400 on bad
// specs — and must never re-forward (it exists to terminate forwards).
func TestPeerSubmitRunsLocally(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, nil, 2)
	defer mgr.Close()
	srv := httptest.NewServer(NewHandlerConfig(mgr, Config{}))
	defer srv.Close()

	body := `{"n":8,"alphas":[1],"ks":[2],"seeds":1}`
	r1, err := http.Post(srv.URL+"/peer/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	if err := json.NewDecoder(r1.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	if r1.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("first peer submit: status %d, job %+v", r1.StatusCode, job)
	}
	if _, ok := mgr.Get(job.ID); !ok {
		t.Fatal("forwarded job is not running on the receiving manager")
	}

	r2, err := http.Post(srv.URL+"/peer/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate peer submit status = %d, want 200", r2.StatusCode)
	}

	r3, err := http.Post(srv.URL+"/peer/jobs", "application/json", strings.NewReader(`{"n":1}`))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid peer submit status = %d, want 400", r3.StatusCode)
	}
}

// TestPeerClaim: a claim lands in the lease table via the generation
// guard (stale generations refused), malformed claims are 400s, and a
// daemon without a lease table answers 503.
func TestPeerClaim(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, nil, 1)
	defer mgr.Close()
	fm := &fakeLeaseMembership{}
	srv := httptest.NewServer(NewHandlerConfig(mgr, Config{Cluster: fm}))
	defer srv.Close()

	claim := func(body string) (int, bool) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/peer/jobs/claim", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Accepted bool `json:"accepted"`
		}
		json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck
		return resp.StatusCode, out.Accepted
	}

	sp := Spec{N: 8, Alphas: []float64{1}, Ks: []int{2}, Seeds: 1}
	sp.Normalize()
	lease := JobLease{JobID: sp.ID(), Spec: sp, Owner: "http://b:1", Generation: 2}
	lb, _ := json.Marshal(lease)
	if code, accepted := claim(string(lb)); code != http.StatusOK || !accepted {
		t.Fatalf("fresh claim: code %d accepted %v", code, accepted)
	}
	// A stale generation loses against the table.
	lease.Generation = 1
	lb, _ = json.Marshal(lease)
	if code, accepted := claim(string(lb)); code != http.StatusOK || accepted {
		t.Fatalf("stale claim: code %d accepted %v, want refused", code, accepted)
	}
	if code, _ := claim(`{"job_id":"","owner":"","generation":0}`); code != http.StatusBadRequest {
		t.Fatalf("empty claim code = %d, want 400", code)
	}
	if code, _ := claim(`{not json`); code != http.StatusBadRequest {
		t.Fatalf("garbage claim code = %d, want 400", code)
	}
	lease.Generation = 3
	lb, _ = json.Marshal(lease)
	if code, _ := claim(string(lb) + `{"x":1}`); code != http.StatusBadRequest {
		t.Fatalf("claim with trailing data code = %d, want 400", code)
	}

	// Without a cluster the endpoint refuses rather than silently
	// dropping claims.
	bare := httptest.NewServer(NewHandlerConfig(mgr, Config{}))
	defer bare.Close()
	resp, err := http.Post(bare.URL+"/peer/jobs/claim", "application/json", strings.NewReader(string(lb)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("claim without a cluster = %d, want 503", resp.StatusCode)
	}
}

// TestGossipCarriesLeasesAndTombstones: /peer/members (and hello) ship
// the lease table and tombstones when the registry keeps them — the
// vehicle that spreads leadership and decommissions cluster-wide.
func TestGossipCarriesLeasesAndTombstones(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, nil, 1)
	defer mgr.Close()
	sp := Spec{N: 8, Alphas: []float64{1}, Ks: []int{2}, Seeds: 1}
	sp.Normalize()
	fm := &fakeLeaseMembership{
		tombs: []Tombstone{{URL: "http://dead:1", Until: time.Now().Add(time.Hour)}},
	}
	fm.UpdateLease(JobLease{JobID: sp.ID(), Spec: sp, Owner: "http://a:1", Generation: 1})
	srv := httptest.NewServer(NewHandlerConfig(mgr, Config{Cluster: fm}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/peer/members")
	if err != nil {
		t.Fatal(err)
	}
	var mr MembersResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(mr.Leases) != 1 || mr.Leases[0].JobID != sp.ID() || mr.Leases[0].Generation != 1 {
		t.Fatalf("gossip leases = %+v", mr.Leases)
	}
	if mr.Leases[0].Spec.ID() != sp.ID() {
		t.Fatal("gossiped lease spec does not round-trip")
	}
	if len(mr.Tombstones) != 1 || mr.Tombstones[0].URL != "http://dead:1" {
		t.Fatalf("gossip tombstones = %+v", mr.Tombstones)
	}
}

// fakeSubmitter scripts SubmitSweep outcomes to exercise the POST
// /sweeps HTTP mapping without a live scheduler.
type fakeSubmitter struct {
	placed PlacedJob
	err    error
	specs  []Spec
}

func (f *fakeSubmitter) SubmitSweep(_ context.Context, sp Spec) (PlacedJob, error) {
	sp.Normalize() // the real scheduler normalizes before placing
	f.specs = append(f.specs, sp)
	return f.placed, f.err
}

// TestSubmitThroughScheduler: with a Submitter configured, POST /sweeps
// reports remote placement via X-Sweep-Placement + Location, keeps
// local placement header-free, and turns RedirectError into a 307.
func TestSubmitThroughScheduler(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, nil, 1)
	defer mgr.Close()
	sp := Spec{N: 8, Alphas: []float64{1}, Ks: []int{2}, Seeds: 1}
	sp.Normalize()
	body := `{"n":8,"alphas":[1],"ks":[2],"seeds":1}`

	post := func(fs *fakeSubmitter) *http.Response {
		t.Helper()
		srv := httptest.NewServer(NewHandlerConfig(mgr, Config{Sched: fs}))
		defer srv.Close()
		client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse // surface the 307 itself
		}}
		resp, err := client.Post(srv.URL+"/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp
	}

	remote := &fakeSubmitter{placed: PlacedJob{
		Job: Job{ID: sp.ID(), Spec: sp, Status: StatusRunning}, Created: true, PlacedOn: "http://peer:1",
	}}
	resp := post(remote)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("remote placement status = %d, want 202", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Sweep-Placement"); got != "http://peer:1" {
		t.Fatalf("X-Sweep-Placement = %q", got)
	}
	if got := resp.Header.Get("Location"); got != "http://peer:1/sweeps/"+sp.ID() {
		t.Fatalf("Location = %q", got)
	}
	if len(remote.specs) != 1 || remote.specs[0].ID() != sp.ID() {
		t.Fatalf("scheduler saw specs %+v", remote.specs)
	}

	local := &fakeSubmitter{placed: PlacedJob{
		Job: Job{ID: sp.ID(), Spec: sp, Status: StatusRunning}, Created: false,
	}}
	resp = post(local)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("local placement status = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Sweep-Placement") != "" {
		t.Fatal("local placement leaked a placement header")
	}

	full := &fakeSubmitter{err: &RedirectError{URL: "http://peer:2"}}
	resp = post(full)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("redirect status = %d, want 307", resp.StatusCode)
	}
	if got := resp.Header.Get("Location"); got != "http://peer:2/sweeps" {
		t.Fatalf("redirect Location = %q", got)
	}

	quota := &fakeSubmitter{err: ErrJobQuota}
	resp = post(quota)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota status = %d, want 429", resp.StatusCode)
	}
}

// TestHealthzAdvertisesLoad: /healthz carries the load snapshot peers
// cache for placement, and the sched section when stats are wired.
func TestHealthzAdvertisesLoad(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, nil, 3)
	defer mgr.Close()
	srv := httptest.NewServer(NewHandlerConfig(mgr, Config{
		SchedStats: func() SchedStats { return SchedStats{Adoptions: 4} },
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Load  *LoadInfo  `json:"load"`
		Sched SchedStats `json:"sched"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if payload.Load == nil {
		t.Fatal("healthz has no load section")
	}
	if payload.Load.QueueDepth != 0 || payload.Load.RunningJobs != 0 {
		t.Fatalf("idle daemon advertises load %+v", payload.Load)
	}
	if payload.Sched.Adoptions != 4 {
		t.Fatalf("healthz sched = %+v", payload.Sched)
	}

	mb, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mb.Body)
	mb.Body.Close()
	if !strings.Contains(string(raw), "sweepd_sched_adoptions_total 4") {
		t.Fatalf("metrics missing sched counters:\n%s", raw)
	}
}

// forwardingSubmitter places every sweep on one peer the way the
// scheduler's forward does: POST /peer/jobs there, report PlacedOn.
type forwardingSubmitter struct{ peer string }

func (f forwardingSubmitter) SubmitSweep(_ context.Context, sp Spec) (PlacedJob, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return PlacedJob{}, err
	}
	resp, err := http.Post(f.peer+"/peer/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return PlacedJob{}, err
	}
	defer resp.Body.Close()
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return PlacedJob{}, err
	}
	return PlacedJob{Job: job, Created: resp.StatusCode == http.StatusAccepted, PlacedOn: f.peer}, nil
}

// TestForwardedSubmitRedirectsReadsAtOnce: the member that received and
// forwarded a submission answers reads and follows of that job with one
// 307 hop to the placement target straight away — its lease and replica
// tables stay empty throughout (gossip held back), which used to mean 404
// until the lease arrived. The memory expires, is bounded, and does not
// answer a request that has already hopped.
func TestForwardedSubmitRedirectsReadsAtOnce(t *testing.T) {
	newDaemon := func(cfg Config) (*Manager, *handler, *httptest.Server) {
		store, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		mgr := NewManager(store, nil, 2)
		t.Cleanup(mgr.Close)
		h, mux := buildHandler(mgr, cfg)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return mgr, h, srv
	}
	targetMgr, _, target := newDaemon(Config{})
	var clock atomic.Int64 // seconds
	_, h, front := newDaemon(Config{
		Sched:   forwardingSubmitter{peer: target.URL},
		Cluster: &fakeLeaseMembership{},
		now:     func() time.Time { return time.Unix(clock.Load(), 0) },
	})

	sp := Spec{N: 10, Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 3}
	sp.Normalize()
	body, _ := json.Marshal(sp)
	resp, err := http.Post(front.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Sweep-Placement") != target.URL {
		t.Fatalf("submit = %s placed on %q, want 202 on %s", resp.Status, resp.Header.Get("X-Sweep-Placement"), target.URL)
	}
	id := sp.ID()

	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	status := func(path string) (int, string) {
		t.Helper()
		resp, err := noFollow.Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Location")
	}
	if code, loc := status("/sweeps/" + id); code != http.StatusTemporaryRedirect || loc != target.URL+"/sweeps/"+id+"?hop=1" {
		t.Fatalf("read at the forwarding member = %d → %q, want 307 → the target with hop=1", code, loc)
	}
	if code, _ := status("/sweeps/" + id + "?hop=1"); code != http.StatusNotFound {
		t.Fatalf("already-hopped read = %d, want 404", code)
	}
	if code, _ := status("/sweeps/0000000000000000"); code != http.StatusNotFound {
		t.Fatalf("read of a job never forwarded = %d, want 404", code)
	}

	// A follow through the front member lands on the target and streams
	// the whole grid.
	resp, err = http.Get(front.URL + "/sweeps/" + id + "/results?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("follow via the forwarding member = %s, %v", resp.Status, err)
	}
	lines := 0
	for _, l := range bytes.Split(stream, []byte("\n")) {
		if len(l) > 0 { // heartbeats are blank lines
			lines++
		}
	}
	if lines != sp.NumCells() {
		t.Fatalf("follow streamed %d lines, want %d", lines, sp.NumCells())
	}
	waitStatus(t, targetMgr, id, StatusDone)

	// Entries expire...
	clock.Add(int64(forwardTTL/time.Second) - 1)
	if code, _ := status("/sweeps/" + id); code != http.StatusTemporaryRedirect {
		t.Fatalf("read just inside the TTL = %d, want 307", code)
	}
	clock.Add(1)
	if code, _ := status("/sweeps/" + id); code != http.StatusNotFound {
		t.Fatalf("read after the TTL = %d, want 404", code)
	}
	// ...and the memory is bounded: full of live entries it takes no
	// more, full of expired ones it sweeps them.
	for i := 0; i < maxForwards+10; i++ {
		h.rememberForward(fmt.Sprintf("job-%d", i), target.URL)
	}
	if n := len(h.forwards); n != maxForwards {
		t.Fatalf("memory holds %d forwards, bound is %d", n, maxForwards)
	}
	clock.Add(int64(forwardTTL / time.Second))
	h.rememberForward("late", target.URL)
	if n := len(h.forwards); n != 1 || h.forwardedTo("late") != target.URL {
		t.Fatalf("after expiry the memory holds %d forwards, want the one live entry", n)
	}
}
