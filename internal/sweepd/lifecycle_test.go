package sweepd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// daemonClock and installClock bind clock_test.go's fake to the daemon's
// clock.
type daemonClock = Clock

var installClock = UseClock

// newLifecycleRig builds a manager over a result cache with a fake
// clock, plus the HTTP layer (handler internals exposed for summary-
// state assertions).
func newLifecycleRig(t *testing.T, cfg Config) (*Manager, *fakeClock, *handler, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewDiskCache(1024, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	clk := useFakeClock(t)
	mgr := NewManager(store, cache, 4)
	h, root := buildHandler(mgr, cfg)
	srv := httptest.NewServer(root)
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return mgr, clk, h, srv, dir
}

// TestGCReapsTerminalJobEndToEnd is the tentpole contract: once a done
// job's TTL lapses, one GC pass reclaims its store directory, its
// kernel's place in the cache's disk index, and the server's summary
// state — and the job is gone from the API.
func TestGCReapsTerminalJobEndToEnd(t *testing.T) {
	mgr, clk, h, srv, dir := newLifecycleRig(t, Config{})

	sp := Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2}
	sp.Normalize()
	job, _, err := mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, mgr, job.ID, StatusDone)
	if done.Created.IsZero() || done.Finished.IsZero() {
		t.Fatalf("terminal job missing timestamps: %+v", done)
	}
	// Populate the per-job summary state the GC must release.
	if code := getJSON(t, srv.URL+"/sweeps/"+job.ID+"/summary", nil); code != http.StatusOK {
		t.Fatalf("GET summary = %d", code)
	}
	h.mu.Lock()
	if h.summaries[job.ID] == nil {
		h.mu.Unlock()
		t.Fatal("summary state not populated")
	}
	h.mu.Unlock()
	jobDir := filepath.Join(dir, job.ID)
	for _, p := range []string{jobDir, filepath.Join(jobDir, "meta.json")} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("missing before GC: %s: %v", p, err)
		}
	}
	if !indexed(mgr.cache, sp.KernelHash()) {
		t.Fatal("the done job's checkpoint is not in the cache's disk index")
	}

	// Within TTL: nothing reaped.
	mgr.gcOnce(time.Hour)
	if _, ok := mgr.Get(job.ID); !ok {
		t.Fatal("GC reaped a job inside its TTL")
	}

	// Past TTL: everything reaped.
	clk.Advance(2 * time.Hour)
	mgr.gcOnce(time.Hour)
	if _, ok := mgr.Get(job.ID); ok {
		t.Fatal("job still registered after GC")
	}
	if _, err := os.Stat(jobDir); !os.IsNotExist(err) {
		t.Fatalf("still on disk after GC: %s", jobDir)
	}
	if indexed(mgr.cache, sp.KernelHash()) {
		t.Fatal("the evicted job's kernel is still in the cache's disk index")
	}
	h.mu.Lock()
	leaked := h.summaries[job.ID] != nil
	h.mu.Unlock()
	if leaked {
		t.Fatal("summary state leaked past eviction")
	}
	if code := getJSON(t, srv.URL+"/sweeps/"+job.ID, nil); code != http.StatusNotFound {
		t.Fatalf("GET evicted job = %d, want 404", code)
	}
	st := mgr.Stats()
	if st.JobsEvicted != 1 {
		t.Fatalf("GC counters = evicted %d", st.JobsEvicted)
	}
}

// TestStartGCEvictsOnTick: the background collector runs on the
// manager's clock. A done job past its TTL stays until the loop's ticker
// fires, one interval's Advance evicts it, and Close stops the loop and
// its ticker.
func TestStartGCEvictsOnTick(t *testing.T) {
	mgr, clk, _, _, _ := newLifecycleRig(t, Config{})
	evicted := make(chan string, 1)
	mgr.OnEvict(func(id string) { evicted <- id })
	job := runDoneJob(t, mgr, Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2})
	clk.Advance(2 * time.Hour) // past the TTL before the loop starts

	mgr.StartGC(time.Hour, time.Minute)
	clk.awaitPending(t, 1)
	if _, ok := mgr.Get(job.ID); !ok {
		t.Fatal("job evicted before the GC ticker fired")
	}
	clk.Advance(time.Minute)
	select {
	case id := <-evicted:
		if id != job.ID {
			t.Fatalf("GC evicted %s, want %s", id, job.ID)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a GC interval passed and the expired job is still registered")
	}
	mgr.Close()
	clk.awaitPending(t, 0)
}

// TestGCSparesRunningAndCanceled: resumable jobs must survive GC — a
// running job no matter how old, and a canceled job with its checkpoint
// intact (it can be resumed); only after it re-finishes does TTL apply.
func TestGCSparesRunningAndCanceled(t *testing.T) {
	mgr, clk, _, _, dir := newLifecycleRig(t, Config{})

	sp := bigSpec()
	job, _, err := mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(48 * time.Hour)
	mgr.gcOnce(time.Hour)
	if j, ok := mgr.Get(job.ID); !ok || j.Status == "" {
		t.Fatal("GC touched a running job")
	}

	if _, ok := mgr.Cancel(job.ID); !ok {
		t.Fatal("cancel failed")
	}
	waitJob(t, mgr, job.ID, stopped)
	clk.Advance(48 * time.Hour)
	mgr.gcOnce(time.Hour)
	if _, ok := mgr.Get(job.ID); !ok {
		t.Fatal("GC reaped a canceled (resumable) job")
	}
	if _, err := os.Stat(filepath.Join(dir, job.ID, "results.jsonl")); err != nil {
		t.Fatalf("canceled job's checkpoint gone: %v", err)
	}

	// Resume it to completion; only then does the TTL clock run out.
	if _, _, err := mgr.Submit(sp); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr, job.ID, StatusDone)
	mgr.gcOnce(time.Hour) // just finished: inside TTL
	if _, ok := mgr.Get(job.ID); !ok {
		t.Fatal("GC reaped a freshly finished job")
	}
	clk.Advance(2 * time.Hour)
	mgr.gcOnce(time.Hour)
	if _, ok := mgr.Get(job.ID); ok {
		t.Fatal("finished job survived GC past its TTL")
	}
}

// holdWorkers takes every worker token of m, so an admitted job with
// cells to compute stays running until the returned release puts them
// back.
func holdWorkers(m *Manager) (release func()) {
	for range m.workers {
		<-m.gate
	}
	return func() {
		for range m.workers {
			m.gate <- struct{}{}
		}
	}
}

// TestJobQuota: -max-jobs caps running jobs. A done job holds no slot; a
// running one does, so a new spec is rejected with ErrJobQuota (HTTP 429)
// and leaves nothing on disk, while resubmitting the running job still
// lands. Load().QueueDepth is the running-job counter the quota reads, and
// it tracks
// admit, finish, cancel, restart and Resume.
func TestJobQuota(t *testing.T) {
	mgr, _, _, srv, dir := newLifecycleRig(t, Config{})
	mgr.SetMaxJobs(1)
	running := func(m *Manager, want int) {
		t.Helper()
		if got := m.Load().QueueDepth; got != want {
			t.Fatalf("Load().QueueDepth = %d, want %d", got, want)
		}
	}
	spec := func(n int) Spec {
		sp := Spec{N: n, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2}
		sp.Normalize()
		return sp
	}
	a, b, c, d := spec(10), spec(11), spec(12), spec(13)

	running(mgr, 0)
	jobA, _, err := mgr.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr, jobA.ID, StatusDone)
	running(mgr, 0)

	// The done job does not block b; with the pool held, b keeps running.
	release := holdWorkers(mgr)
	if _, created, err := mgr.Submit(b); err != nil || !created {
		t.Fatalf("submit beside a done job: created=%v err=%v", created, err)
	}
	running(mgr, 1)

	// The running job blocks c, in memory and over HTTP (a structured
	// 429), and the rejected spec must not linger on disk to resurrect at
	// restart.
	if _, _, err := mgr.Submit(c); !errors.Is(err, ErrJobQuota) {
		t.Fatalf("over-quota submit err = %v, want ErrJobQuota", err)
	}
	resp, err := http.Post(srv.URL+"/sweeps", "application/json",
		strings.NewReader(`{"n": 12, "alphas": [1], "ks": [2], "seeds": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(body.Error, "quota") ||
		!strings.Contains(body.Error, "1 jobs running") {
		t.Fatalf("over-quota POST = %d %q, want 429 quota error naming the running jobs", resp.StatusCode, body.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, c.ID())); !os.IsNotExist(err) {
		t.Fatal("over-quota spec left on disk")
	}
	// Resubmitting the running job (or the done one) is exempt.
	if j, created, err := mgr.Submit(b); err != nil || created || j.Status != StatusRunning {
		t.Fatalf("resubmit of running job: %+v created=%v err=%v", j, created, err)
	}
	if _, _, err := mgr.Submit(a); err != nil {
		t.Fatalf("resubmit of done job rejected: %v", err)
	}
	running(mgr, 1)

	// Cancel frees the slot; resubmitting the canceled job restarts it and
	// takes the slot again; finishing frees it for c.
	mgr.Cancel(b.ID())
	waitStatus(t, mgr, b.ID(), StatusCanceled)
	running(mgr, 0)
	if _, _, err := mgr.Submit(b); err != nil {
		t.Fatalf("restart of canceled job: %v", err)
	}
	running(mgr, 1)
	release()
	waitStatus(t, mgr, b.ID(), StatusDone)
	running(mgr, 0)
	if _, _, err := mgr.Submit(c); err != nil {
		t.Fatalf("submit after the running job finished: %v", err)
	}
	waitStatus(t, mgr, c.ID(), StatusDone)
	running(mgr, 0)

	// Close cancels d before it computes a cell. A new manager over the
	// store resumes every job (quota-exempt): the three complete ones
	// finish at once, d runs until the pool is released.
	holdWorkers(mgr)
	if _, _, err := mgr.Submit(d); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	running(mgr, 0)
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := NewManager(store, nil, 2)
	t.Cleanup(mgr2.Close)
	mgr2.SetMaxJobs(1)
	release = holdWorkers(mgr2)
	if err := mgr2.Resume(); err != nil {
		t.Fatal(err)
	}
	for _, sp := range []Spec{a, b, c} {
		waitStatus(t, mgr2, sp.ID(), StatusDone)
	}
	running(mgr2, 1)
	release()
	waitStatus(t, mgr2, d.ID(), StatusDone)
	running(mgr2, 0)
}

// TestRateLimit429RetryAfter: beyond the per-class budget requests get
// 429 with a Retry-After hint, /healthz and /metrics stay exempt, the
// throttle count lands in /metrics, and tokens refill with the clock.
func TestRateLimit429RetryAfter(t *testing.T) {
	clk := useFakeClock(t)
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, nil, 1)
	t.Cleanup(mgr.Close)
	_, root := buildHandler(mgr, Config{Rate: 1})
	srv := httptest.NewServer(root)
	t.Cleanup(srv.Close)

	if code := getJSON(t, srv.URL+"/sweeps", nil); code != http.StatusOK {
		t.Fatalf("first read = %d", code)
	}
	resp, err := http.Get(srv.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second read = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive whole-second hint", ra)
	}
	if !strings.Contains(body.Error, "rate limit") {
		t.Fatalf("429 body = %q", body.Error)
	}

	// The mutate class has its own bucket: a POST still gets through even
	// though the read bucket is dry.
	resp, err = http.Post(srv.URL+"/sweeps", "application/json", strings.NewReader(`not json`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("first mutate = %d, want 400 (limited separately from reads)", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/sweeps", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second mutate = %d, want 429", resp.StatusCode)
	}

	// Probes and scrapers are exempt.
	for i := 0; i < 5; i++ {
		if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
			t.Fatalf("healthz throttled: %d", code)
		}
	}
	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, res)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("metrics throttled: %d", res.StatusCode)
	}
	if !strings.Contains(metrics, "sweepd_throttled_requests_total 2") {
		t.Fatalf("metrics missing throttle count:\n%s", metrics)
	}

	// Tokens refill with the (fake) clock.
	clk.Advance(1100 * time.Millisecond)
	if code := getJSON(t, srv.URL+"/sweeps", nil); code != http.StatusOK {
		t.Fatalf("read after refill = %d", code)
	}
}

// TestSubmitStoreErrorIs500: when the store cannot persist a valid
// spec, the failure is the server's (ErrStore, HTTP 500) — not a 400
// blaming the client for the daemon's disk.
func TestSubmitStoreErrorIs500(t *testing.T) {
	mgr, _, _, srv, dir := newLifecycleRig(t, Config{})

	sp := Spec{N: 10, Alphas: []float64{3}, Ks: []int{2}, Seeds: 1}
	sp.Normalize()
	// Block the job dir with a regular file: CreateJob's MkdirAll fails
	// with ENOTDIR regardless of privilege (chmod tricks don't bind when
	// tests run as root).
	if err := os.WriteFile(filepath.Join(dir, sp.ID()), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := mgr.Submit(sp)
	if err == nil || !errors.Is(err, ErrStore) {
		t.Fatalf("submit err = %v, want ErrStore", err)
	}

	resp, err := http.Post(srv.URL+"/sweeps", "application/json",
		strings.NewReader(`{"n": 10, "alphas": [3], "ks": [2], "seeds": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("store-failure POST = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(body.Error, "store failure") {
		t.Fatalf("500 body = %q", body.Error)
	}
	// A genuinely bad spec still gets 400.
	resp, err = http.Post(srv.URL+"/sweeps", "application/json",
		strings.NewReader(`{"n": 1, "alphas": [1], "ks": [2], "seeds": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-spec POST = %d, want 400", resp.StatusCode)
	}
}

// TestSubmitRejectsTrailingData: the submit body must be exactly one
// JSON value — {"n":10}{"garbage":true} used to be silently accepted on
// the strength of its first value.
func TestSubmitRejectsTrailingData(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL+"/sweeps", "application/json",
		strings.NewReader(`{"n": 10, "alphas": [1], "ks": [2], "seeds": 1}{"garbage": true}`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, "trailing") {
		t.Fatalf("trailing-data POST = %d %q, want 400 trailing-data error", resp.StatusCode, body.Error)
	}
	// Trailing whitespace is fine.
	resp, err = http.Post(srv.URL+"/sweeps", "application/json",
		strings.NewReader("{\"n\": 10, \"alphas\": [1], \"ks\": [2], \"seeds\": 1}  \n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("whitespace-trailing POST = %d, want 202", resp.StatusCode)
	}
}

// TestOrphanSweep: a crash between CreateJob's MkdirAll and the spec
// rename leaves a job dir with at most a spec.json.tmp inside; both
// OpenStore and the GC pass must delete it, while committed jobs and
// fresh in-flight dirs survive.
func TestOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	sp.Normalize()
	id, _, err := store.CreateJob(sp)
	if err != nil {
		t.Fatal(err)
	}

	plant := func(name string, age time.Duration) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(p, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(p, "spec.json.tmp"), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(-age)
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
		return p
	}
	orphan := plant("0123456789abcdef", time.Hour)

	// Reopening the store sweeps orphans (at boot nothing races CreateJob,
	// so no grace period applies).
	if _, err := OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("stale orphan survived OpenStore")
	}
	if _, err := os.Stat(filepath.Join(dir, id, "spec.json")); err != nil {
		t.Fatalf("committed job swept: %v", err)
	}

	// The GC pass sweeps them too — but with the TTL as grace period, so
	// a dir a concurrent CreateJob is mid-populating survives.
	orphan = plant("0123456789abcdef", 2*time.Hour)
	fresh := plant("fedcba9876543210", 0) // modtime ≈ now: racing CreateJob
	mgr := NewManager(store, nil, 1)
	t.Cleanup(mgr.Close)
	mgr.gcOnce(time.Hour)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("stale orphan survived GC")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("in-flight dir inside the grace period swept: %v", err)
	}
}

// TestResumePlaceholderSurfacesSpecError: a job whose on-disk spec is
// unreadable must resume as a failed placeholder whose Error names the
// spec path and the parse problem (not a silent zero spec), and GC must
// reap the husk.
func TestResumePlaceholderSurfacesSpecError(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const id = "aaaaaaaaaaaaaaaa"
	if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, id, "spec.json")
	if err := os.WriteFile(specPath, []byte(`{"n": `), 0o644); err != nil {
		t.Fatal(err)
	}

	clk := useFakeClock(t)
	mgr := NewManager(store, nil, 1)
	t.Cleanup(mgr.Close)
	if err := mgr.Resume(); err != nil {
		t.Fatal(err)
	}
	job, ok := mgr.Get(id)
	if !ok || job.Status != StatusFailed {
		t.Fatalf("placeholder = %+v, ok=%v", job, ok)
	}
	if !strings.Contains(job.Error, specPath) {
		t.Fatalf("Error does not name the spec path: %q", job.Error)
	}
	if !strings.Contains(job.Error, "unexpected end of JSON") {
		t.Fatalf("Error does not surface the parse problem: %q", job.Error)
	}
	if job.Created.IsZero() || job.Finished.IsZero() {
		t.Fatalf("placeholder missing GC timestamps: %+v", job)
	}

	// An invalid (but parseable) spec gets the same treatment.
	const id2 = "bbbbbbbbbbbbbbbb"
	if err := os.MkdirAll(filepath.Join(dir, id2), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id2, "spec.json"),
		[]byte(`{"n": 1, "alphas": [1], "ks": [2], "seeds": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	mgr2 := NewManager(store, nil, 1)
	t.Cleanup(mgr2.Close)
	if err := mgr2.Resume(); err != nil {
		t.Fatal(err)
	}
	if job2, _ := mgr2.Get(id2); !strings.Contains(job2.Error, "spec.json") || !strings.Contains(job2.Error, "n ≥ 2") {
		t.Fatalf("invalid-spec placeholder error = %q", job2.Error)
	}

	// So does a spec persisted before Validate had its ceilings: it must
	// come back failed with the cap in its Error, never as a running job
	// whose factory asks for n = 4e9 players.
	const id3 = "cccccccccccccccc"
	if err := os.MkdirAll(filepath.Join(dir, id3), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id3, "spec.json"),
		[]byte(`{"variant":"max","graph":"tree","n":4000000000,"alphas":[1],"ks":[2],"seeds":1,"base_seed":1,"max_rounds":100,"cycle_check_after":25}`), 0o644); err != nil {
		t.Fatal(err)
	}
	mgr3 := NewManager(store, nil, 1)
	t.Cleanup(mgr3.Close)
	if err := mgr3.Resume(); err != nil {
		t.Fatal(err)
	}
	if job3, _ := mgr3.Get(id3); job3.Status != StatusFailed || !strings.Contains(job3.Error, "10000-player cap") {
		t.Fatalf("over-cap placeholder = %+v", job3)
	}

	// GC reaps placeholders like any failed job.
	clk.Advance(2 * time.Hour)
	mgr.gcOnce(time.Hour)
	if _, ok := mgr.Get(id); ok {
		t.Fatal("placeholder survived GC")
	}
	if _, err := os.Stat(filepath.Join(dir, id)); !os.IsNotExist(err) {
		t.Fatal("placeholder dir survived GC")
	}
}

// TestServerPurgeEndpoint: DELETE /sweeps/{id}?purge=1 evicts a
// terminal job (store dir gone, then 404), refuses a running one with
// 409, and keeps plain DELETE semantics (cancel) intact.
func TestServerPurgeEndpoint(t *testing.T) {
	mgr, _, _, srv, dir := newLifecycleRig(t, Config{})

	sp := Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2}
	sp.Normalize()
	job, _, err := mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr, job.ID, StatusDone)

	doDelete := func(url string) (*http.Response, map[string]json.RawMessage) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]json.RawMessage
		json.NewDecoder(resp.Body).Decode(&body) //nolint:errcheck
		resp.Body.Close()
		return resp, body
	}

	resp, body := doDelete(srv.URL + "/sweeps/" + job.ID + "?purge=1")
	if resp.StatusCode != http.StatusOK || string(body["purged"]) != "true" {
		t.Fatalf("purge = %d %v", resp.StatusCode, body)
	}
	if _, err := os.Stat(filepath.Join(dir, job.ID)); !os.IsNotExist(err) {
		t.Fatal("purged job dir still on disk")
	}
	if code := getJSON(t, srv.URL+"/sweeps/"+job.ID, nil); code != http.StatusNotFound {
		t.Fatalf("GET purged job = %d, want 404", code)
	}
	if _, metrics := getRaw(t, srv.URL+"/metrics", nil); !strings.Contains(string(metrics), "\nsweepd_jobs_evicted_total 1\n") {
		t.Fatalf("the purge is not counted in /metrics:\n%s", metrics)
	}
	if resp, _ := doDelete(srv.URL + "/sweeps/" + job.ID + "?purge=1"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double purge = %d, want 404", resp.StatusCode)
	}

	// Purging a running job is refused with 409 (cancel first). A
	// synthetic running job keeps the check deterministic — a real sweep
	// could finish before the request lands.
	const runningID = "feedabc123456789"
	closed := make(chan struct{})
	close(closed)
	mgr.mu.Lock()
	mgr.jobs[runningID] = &jobState{
		job:    Job{ID: runningID, Status: StatusRunning},
		cancel: func() {},
		done:   closed,
	}
	mgr.mu.Unlock()
	if resp, _ := doDelete(srv.URL + "/sweeps/" + runningID + "?purge=1"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("purge running = %d, want 409", resp.StatusCode)
	}
	if j, ok := mgr.Get(runningID); !ok || j.Status != StatusRunning {
		t.Fatalf("refused purge disturbed the job: %+v ok=%v", j, ok)
	}

	// A malformed purge value must be a 400 — not a silent cancel of a
	// running job the client only meant to purge.
	if resp, _ := doDelete(srv.URL + "/sweeps/" + runningID + "?purge=yes"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("purge=yes = %d, want 400", resp.StatusCode)
	}
	if j, ok := mgr.Get(runningID); !ok || j.Status != StatusRunning {
		t.Fatalf("bad purge value canceled the job: %+v ok=%v", j, ok)
	}
}

// registerSyntheticJobs stuffs the manager's job table with terminal
// entries, bypassing the runners — probe-cost tests need thousands of
// jobs without computing anything.
func registerSyntheticJobs(m *Manager, n int) {
	closed := make(chan struct{})
	close(closed)
	m.mu.Lock()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%016x", i)
		m.jobs[id] = &jobState{
			job:    Job{ID: id, Status: StatusDone},
			cancel: func() {},
			done:   closed,
		}
	}
	m.mu.Unlock()
}

// TestHealthzAllocsConstantPerJob pins the satellite perf fix: the
// liveness probe's cost must not allocate per retained job (it used to
// snapshot, copy, and sort every job via List()).
func TestHealthzAllocsConstantPerJob(t *testing.T) {
	alloc := func(jobs int) float64 {
		store, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(store, nil, 1)
		defer m.Close()
		registerSyntheticJobs(m, jobs)
		return testing.AllocsPerRun(100, func() { m.Stats() })
	}
	small, large := alloc(8), alloc(2048)
	if large > small {
		t.Fatalf("Stats allocates per job: %.0f allocs at 8 jobs vs %.0f at 2048", small, large)
	}
}

func readAll(t *testing.T, res *http.Response) string {
	t.Helper()
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
