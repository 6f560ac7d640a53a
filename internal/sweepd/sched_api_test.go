package sweepd

// Tests for the scheduler-facing HTTP surface: no /peer/jobs route, the
// lease/tombstone gossip payload, and POST /sweeps routed through a
// Submitter.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeLeaseMembership is fakeMembership plus a lease table and
// tombstones — the HTTP layer's view of a scheduling-enabled
// cluster.Registry.
type fakeLeaseMembership struct {
	fakeMembership
	leases []JobLease
	tombs  []Tombstone
}

func (f *fakeLeaseMembership) Leases() []JobLease      { return f.leases }
func (f *fakeLeaseMembership) Tombstones() []Tombstone { return f.tombs }

// TestPeerClaim: a lease travels only on the gossip pull, so no
// /peer/jobs route exists — neither a claim push nor a forwarded spec
// (the member a sweep is posted to leads it).
func TestPeerClaim(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, nil, 1)
	defer mgr.Close()
	srv := httptest.NewServer(NewHandlerConfig(mgr, Config{Cluster: &fakeLeaseMembership{}}))
	defer srv.Close()

	sp := Spec{N: 8, Alphas: []float64{1}, Ks: []int{2}, Seeds: 1}
	sp.Normalize()
	lb, _ := json.Marshal(JobLease{JobID: sp.ID(), Spec: sp, Owner: "http://b:1", Generation: 2})
	for path, body := range map[string]string{
		"/peer/jobs/claim": string(lb),
		"/peer/jobs":       `{"n":8,"alphas":[1],"ks":[2],"seeds":1}`,
	} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s = %d, want 404", path, resp.StatusCode)
		}
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
		leases: []JobLease{{JobID: sp.ID(), Spec: sp, Owner: "http://a:1", Generation: 1}},
		tombs:  []Tombstone{{URL: "http://dead:1", Until: time.Now().Add(time.Hour)}},
	}
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
	job   Job
	err   error
	specs []Spec
}

func (f *fakeSubmitter) SubmitSweep(_ context.Context, sp Spec) (Job, bool, error) {
	sp.Normalize() // the real scheduler's manager normalizes before admitting
	f.specs = append(f.specs, sp)
	return f.job, false, f.err
}

// TestSubmitThroughScheduler: with a Submitter configured, POST /sweeps
// hands it the spec, answers with the job it admitted and no placement
// header, and maps the quota error to 429.
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
		resp, err := http.Post(srv.URL+"/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp
	}

	local := &fakeSubmitter{job: Job{ID: sp.ID(), Spec: sp, Status: StatusRunning}}
	resp := post(local)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("local placement status = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Sweep-Placement") != "" {
		t.Fatal("local placement leaked a placement header")
	}
	if len(local.specs) != 1 || local.specs[0].ID() != sp.ID() {
		t.Fatalf("scheduler saw specs %+v", local.specs)
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
	if payload.Load.QueueDepth != 0 {
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
