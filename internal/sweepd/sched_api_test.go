package sweepd

// Tests for the scheduler-facing HTTP surface: the /peer/jobs/claim
// endpoint, the lease/tombstone gossip payload, and POST /sweeps routed
// through a Submitter.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// TestPeerClaim: a claim lands in the lease table via the generation
// guard (stale generations refused), malformed claims are 400s, a daemon
// without a lease table answers 503, and the claim is the only
// /peer/jobs route (the member a sweep is posted to leads it, so no
// peer accepts a forwarded spec).
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

	resp, err = http.Post(srv.URL+"/peer/jobs", "application/json", strings.NewReader(`{"n":8,"alphas":[1],"ks":[2],"seeds":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /peer/jobs = %d, want 404", resp.StatusCode)
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
