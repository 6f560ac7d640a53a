package sweepd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
	"repro/internal/stats"
)

func newTestServer(t *testing.T) (*httptest.Server, *Manager) {
	t.Helper()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, NewCache(1024), 4)
	srv := httptest.NewServer(NewHandlerConfig(mgr, Config{}))
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return srv, mgr
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServerEndToEnd drives the full client flow over HTTP: submit a
// sweep, poll its status, stream the results, and check every line
// decodes and covers the full grid in canonical order.
func TestServerEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t)

	spec := `{"n": 12, "alphas": [0.5, 2], "ks": [2, 1000], "seeds": 2}`
	resp, err := http.Post(srv.URL+"/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps = %d, want 202", resp.StatusCode)
	}
	if job.ID == "" || job.Total != 8 {
		t.Fatalf("job = %+v", job)
	}

	// Resubmitting the same spec is idempotent: 200, same job.
	resp, err = http.Post(srv.URL+"/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var again Job
	json.NewDecoder(resp.Body).Decode(&again) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || again.ID != job.ID {
		t.Fatalf("resubmit = %d, job %s (want 200, %s)", resp.StatusCode, again.ID, job.ID)
	}

	// Poll until done.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var cur Job
		if code := getJSON(t, srv.URL+"/sweeps/"+job.ID, &cur); code != http.StatusOK {
			t.Fatalf("GET /sweeps/{id} = %d", code)
		}
		if cur.Status == StatusDone {
			break
		}
		if cur.Status == StatusFailed {
			t.Fatalf("job failed: %s", cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", cur)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Stream the results and decode every NDJSON line.
	res, err := http.Get(srv.URL + "/sweeps/" + job.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET results = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	if st := res.Header.Get("X-Sweep-Status"); st != string(StatusDone) {
		t.Fatalf("X-Sweep-Status = %q", st)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	var lines int
	for sc.Scan() {
		if _, err := ncgio.UnmarshalCellResult(sc.Bytes()); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		lines++
	}
	if lines != job.Total {
		t.Fatalf("streamed %d results, want %d", lines, job.Total)
	}

	// List includes the job.
	var list struct {
		Sweeps []Job `json:"sweeps"`
	}
	if code := getJSON(t, srv.URL+"/sweeps", &list); code != http.StatusOK {
		t.Fatalf("GET /sweeps = %d", code)
	}
	if len(list.Sweeps) != 1 || list.Sweeps[0].ID != job.ID {
		t.Fatalf("list = %+v", list)
	}
}

func TestServerRejectsBadSpecs(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, body := range []string{
		`not json`,
		`{"n": 1, "alphas": [1], "ks": [2], "seeds": 1}`,          // n too small
		`{"n": 10, "alphas": [], "ks": [2], "seeds": 1}`,          // empty grid
		`{"n": 10, "alphas": [1], "ks": [2], "seeds": 1, "x": 1}`, // unknown field
		`{"n": 10, "alphas": [1], "ks": [2], "seeds": 1, "variant": "min"}`,
	} {
		resp, err := http.Post(srv.URL+"/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestServerUnknownJob(t *testing.T) {
	srv, _ := newTestServer(t)
	if code := getJSON(t, srv.URL+"/sweeps/deadbeefdeadbeef", nil); code != http.StatusNotFound {
		t.Fatalf("GET unknown = %d, want 404", code)
	}
	if code := getJSON(t, srv.URL+"/sweeps/deadbeefdeadbeef/results", nil); code != http.StatusNotFound {
		t.Fatalf("GET unknown results = %d, want 404", code)
	}
	if code := getJSON(t, srv.URL+"/sweeps/deadbeefdeadbeef/summary", nil); code != http.StatusNotFound {
		t.Fatalf("GET unknown summary = %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/sweeps/deadbeefdeadbeef", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown = %d, want 404", resp.StatusCode)
	}
}

func TestServerHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	var health struct {
		Status string     `json:"status"`
		Jobs   int        `json:"jobs"`
		Cache  CacheStats `json:"cache"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", code)
	}
	if health.Status != "ok" {
		t.Fatalf("health = %+v", health)
	}
}

func TestServerStreamsPartialResults(t *testing.T) {
	srv, mgr := newTestServer(t)
	job, _, err := mgr.Submit(bigSpec())
	if err != nil {
		t.Fatal(err)
	}
	// While running, the endpoint serves the results so far: every
	// newline-terminated line must decode cleanly.
	res, err := http.Get(srv.URL + "/sweeps/" + job.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if i := bytes.LastIndexByte(body, '\n'); i >= 0 {
		sc := bufio.NewScanner(bytes.NewReader(body[:i+1]))
		for sc.Scan() {
			if _, err := ncgio.UnmarshalCellResult(sc.Bytes()); err != nil {
				t.Fatalf("partial stream line does not decode: %v", err)
			}
		}
	}
	// The clamp satellite: even mid-run, the served body must end on a
	// newline — never half a record.
	if len(body) > 0 && body[len(body)-1] != '\n' {
		t.Fatalf("served stream not clamped to whole lines: ends %q", body[len(body)-20:])
	}
	waitStatus(t, mgr, job.ID, StatusDone)
}

// decodeStream splits an NDJSON body into cell results, skipping blank
// (heartbeat) lines.
func decodeStream(t *testing.T, body []byte) []dynamics.CellResult {
	t.Helper()
	var out []dynamics.CellResult
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		r, err := ncgio.UnmarshalCellResult(line)
		if err != nil {
			t.Fatalf("line %d does not decode: %v", len(out), err)
		}
		out = append(out, r)
	}
	return out
}

// TestServerFollowStreamsLiveJob attaches a ?follow=1 client to a running
// job and checks it receives every cell of the canonical grid, a clean
// EOF when the job finishes, and the terminal status in the
// X-Sweep-Status trailer. Keep-alive lines are
// TestServerFollowHeartbeatsAndTornTail's.
func TestServerFollowStreamsLiveJob(t *testing.T) {
	srv, mgr := newTestServer(t)
	sp := bigSpec()
	job, _, err := mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}

	res, err := http.Get(srv.URL + "/sweeps/" + job.ID + "/results?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET ?follow=1 = %d", res.StatusCode)
	}
	body, err := io.ReadAll(res.Body) // blocks until the job is terminal
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Trailer.Get("X-Sweep-Status"); st != string(StatusDone) {
		t.Fatalf("trailer X-Sweep-Status = %q, want done", st)
	}
	results := decodeStream(t, body)
	want := sp.Cells()
	if len(results) != len(want) {
		t.Fatalf("followed %d cells, want %d", len(results), len(want))
	}
	for i, r := range results {
		if r.Cell != want[i] {
			t.Fatalf("cell %d = %+v, want canonical %+v", i, r.Cell, want[i])
		}
	}
	// Following an already-done job returns the full grid and closes.
	res, err = http.Get(srv.URL + "/sweeps/" + job.ID + "/results?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeStream(t, body); len(got) != len(want) {
		t.Fatalf("follow-after-done streamed %d cells, want %d", len(got), len(want))
	}
	if st := res.Trailer.Get("X-Sweep-Status"); st != string(StatusDone) {
		t.Fatalf("follow-after-done trailer = %q", st)
	}

	// ?follow=false is a plain snapshot: status in the header, no trailer.
	res, err = http.Get(srv.URL + "/sweeps/" + job.ID + "/results?follow=false")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Header.Get("X-Sweep-Status"); st != string(StatusDone) {
		t.Fatalf("follow=false header = %q, want done", st)
	}
	if got := decodeStream(t, body); len(got) != len(want) {
		t.Fatalf("follow=false streamed %d cells, want %d", len(got), len(want))
	}
}

// feedJob registers a synthetic running job on mgr, counted the way admit
// counts one, and returns it with its checkpoint opened for the test to
// append to by hand; mgr.finish ends it the way a runner does.
func feedJob(t *testing.T, mgr *Manager, id string) (*jobState, *os.File) {
	t.Helper()
	closed := make(chan struct{})
	close(closed)
	js := &jobState{job: Job{ID: id, Status: StatusRunning, Total: 2}, cancel: func() {}, done: closed}
	mgr.mu.Lock()
	mgr.jobs[id] = js
	mgr.running++
	mgr.mu.Unlock()

	path := mgr.ResultsPath(id)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return js, f
}

// TestServerFollowHeartbeatsAndTornTail drives follow mode against a
// hand-fed job on the manager's fake clock: the client must receive a
// blank line after each quiet keep-alive interval, never see a torn
// fragment, pick up the line once its newline lands, and get the
// terminal trailer when the job finishes.
func TestServerFollowHeartbeatsAndTornTail(t *testing.T) {
	srv, mgr := newTestServer(t)
	clk := newFakeClock()
	mgr.useClock(clk)
	js, f := feedJob(t, mgr, "feedjob")
	line1 := append(cacheLine(dynamics.Cell{Alpha: 1, K: 2, Seed: 0}), '\n')
	line2 := append(cacheLine(dynamics.Cell{Alpha: 1, K: 2, Seed: 1}), '\n')
	f.Write(line1) //nolint:errcheck

	// A missing keep-alive fails the read at the timeout, not the run's.
	client := &http.Client{Timeout: 30 * time.Second}
	res, err := client.Get(srv.URL + "/sweeps/feedjob/results?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	stream := bufio.NewReader(res.Body)
	next := func(want []byte, what string) {
		t.Helper()
		if got, err := stream.ReadBytes('\n'); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: read %q, %v; want %q", what, got, err, want)
		}
	}
	// The follower started its drain ticker before it sent line 1.
	next(line1, "first line")
	clk.Advance(keepAliveInterval)
	next([]byte("\n"), "keep-alive after a quiet interval")

	// A torn fragment stays unsent. The second keep-alive below comes
	// after a drain that saw the fragment, which would have sent it
	// ahead of the blank line.
	f.Write(line2[:10]) //nolint:errcheck
	for range 2 {
		clk.Advance(keepAliveInterval)
		next([]byte("\n"), "keep-alive after a torn fragment")
	}
	f.Write(line2[10:]) //nolint:errcheck
	clk.Advance(followTick)
	next(line2, "completed line")

	mgr.finish(js, StatusDone, "")
	if rest, err := io.ReadAll(stream); err != nil || len(rest) != 0 {
		t.Fatalf("after finish read %q, %v", rest, err)
	}
	if st := res.Trailer.Get("X-Sweep-Status"); st != string(StatusDone) {
		t.Fatalf("trailer = %q, want done", st)
	}
}

// TestServerFollowWakesOnFinish: a follower of a running job returns with
// the done trailer as soon as the job finishes, not at its next drain
// tick. A lost wake costs a whole tick, so twenty follows of jobs
// finished mid-follow must end in well under twenty ticks.
func TestServerFollowWakesOnFinish(t *testing.T) {
	srv, mgr := newTestServer(t)
	const jobs = 20
	var waited time.Duration
	for i := range jobs {
		id := fmt.Sprintf("wake%012d", i)
		js, f := feedJob(t, mgr, id)
		line := append(cacheLine(dynamics.Cell{Alpha: 1, K: 2, Seed: int64(i)}), '\n')
		f.Write(line) //nolint:errcheck
		res, err := http.Get(srv.URL + "/sweeps/" + id + "/results?follow=1")
		if err != nil {
			t.Fatal(err)
		}
		// The first line arrives once the follower holds its wake channel.
		br := bufio.NewReader(res.Body)
		if first, err := br.ReadBytes('\n'); err != nil || !bytes.Equal(first, line) {
			t.Fatalf("job %d: first line %q, %v", i, first, err)
		}
		start := time.Now()
		mgr.finish(js, StatusDone, "")
		rest, err := io.ReadAll(br)
		waited += time.Since(start)
		res.Body.Close()
		if st := res.Trailer.Get("X-Sweep-Status"); err != nil || len(rest) != 0 || st != string(StatusDone) {
			t.Fatalf("job %d: after finish read %q, %v, trailer %q", i, rest, err, st)
		}
	}
	if waited >= jobs*followTick/4 {
		t.Fatalf("%d follows took %v from finish to trailer; a woken follow takes milliseconds, a tick %v",
			jobs, waited, followTick)
	}
	t.Logf("%d follows: %v from finish to trailer in total", jobs, waited)
}

// TestServerSummaryMatchesClientSide is the aggregates contract: the
// server-side /summary roll-up must equal stats.Summarize computed
// client-side from the /results stream — including after mid-run polls,
// which exercise the incremental (decode-only-new-bytes) accumulation.
func TestServerSummaryMatchesClientSide(t *testing.T) {
	srv, mgr := newTestServer(t)
	sp := bigSpec()
	job, _, err := mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}

	// Poll /summary while the job runs: cell counts must be monotone and
	// bounded, and a terminal status must only ever label a full grid.
	prevCells := 0
	for {
		var mid SweepSummary
		if code := getJSON(t, srv.URL+"/sweeps/"+job.ID+"/summary", &mid); code != http.StatusOK {
			t.Fatalf("GET summary mid-run = %d", code)
		}
		if mid.Cells < prevCells || mid.Cells > job.Total {
			t.Fatalf("summary cells went %d -> %d (total %d)", prevCells, mid.Cells, job.Total)
		}
		prevCells = mid.Cells
		if mid.Status != StatusRunning && mid.Cells != job.Total {
			t.Fatalf("terminal summary (%s) covers %d of %d cells", mid.Status, mid.Cells, job.Total)
		}
		if mid.Status == StatusDone {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitStatus(t, mgr, job.ID, StatusDone)

	res, err := http.Get(srv.URL + "/sweeps/" + job.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	results := decodeStream(t, body)
	if len(results) != job.Total {
		t.Fatalf("results = %d cells, want %d", len(results), job.Total)
	}

	// Client-side roll-up, straight from stats.Summarize.
	type key struct {
		alpha float64
		k     int
	}
	samples := map[key]map[string][]float64{}
	var order []key
	for _, r := range results {
		k := key{r.Cell.Alpha, r.Cell.K}
		if samples[k] == nil {
			samples[k] = map[string][]float64{}
			order = append(order, k)
		}
		conv := 0.0
		if r.Result.Status == dynamics.Converged {
			conv = 1
		}
		samples[k]["diameter"] = append(samples[k]["diameter"], float64(r.Result.FinalStats.Diameter))
		samples[k]["ratio"] = append(samples[k]["ratio"], r.Result.FinalStats.Quality)
		samples[k]["rounds"] = append(samples[k]["rounds"], float64(r.Result.Rounds))
		samples[k]["conv"] = append(samples[k]["conv"], conv)
	}

	var got SweepSummary
	if code := getJSON(t, srv.URL+"/sweeps/"+job.ID+"/summary", &got); code != http.StatusOK {
		t.Fatalf("GET summary = %d", code)
	}
	if got.ID != job.ID || got.Status != StatusDone || got.Cells != job.Total || got.TotalCells != job.Total {
		t.Fatalf("summary envelope = %+v", got)
	}
	if len(got.Groups) != len(order) {
		t.Fatalf("summary has %d groups, want %d", len(got.Groups), len(order))
	}
	for i, g := range got.Groups {
		k := order[i]
		if g.Alpha != k.alpha || g.K != k.k {
			t.Fatalf("group %d = (%g,%d), want (%g,%d)", i, g.Alpha, g.K, k.alpha, k.k)
		}
		if want := stats.Summarize(samples[k]["diameter"]); g.Diameter != want {
			t.Fatalf("group %+v diameter = %+v, want %+v", k, g.Diameter, want)
		}
		if want := stats.Summarize(samples[k]["ratio"]); g.SocialCostRatio != want {
			t.Fatalf("group %+v ratio = %+v, want %+v", k, g.SocialCostRatio, want)
		}
		if want := stats.Summarize(samples[k]["rounds"]); g.Rounds != want {
			t.Fatalf("group %+v rounds = %+v, want %+v", k, g.Rounds, want)
		}
		if want := stats.Summarize(samples[k]["conv"]); g.ConvergedRate != want {
			t.Fatalf("group %+v converged = %+v, want %+v", k, g.ConvergedRate, want)
		}
	}
}

// TestServerDeleteTerminalConflict: canceling a job that already reached
// a terminal status is a 409, not a pretend-success 200.
func TestServerDeleteTerminalConflict(t *testing.T) {
	srv, mgr := newTestServer(t)
	sp := Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2}
	job, _, err := mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr, job.ID, StatusDone)

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/sweeps/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var conflict struct {
		Error string `json:"error"`
		Sweep Job    `json:"sweep"`
	}
	json.NewDecoder(resp.Body).Decode(&conflict) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE done job = %d, want 409", resp.StatusCode)
	}
	if conflict.Sweep.Status != StatusDone || !strings.Contains(conflict.Error, "done") {
		t.Fatalf("conflict body = %+v", conflict)
	}

	// A genuinely running job still cancels with 200 … The job must not
	// be able to finish before the DELETE lands, so give it cells heavy
	// enough (full-knowledge best response at n = 100, hundreds of ms
	// each) that the first wave alone outlasts the request round-trip.
	heavy := Spec{N: 100, Alphas: []float64{0.3, 0.5, 1, 2, 5}, Ks: []int{1000}, Seeds: 8}
	heavy.Normalize()
	running, _, err := mgr.Submit(heavy)
	if err != nil {
		t.Fatal(err)
	}
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/sweeps/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE running job = %d, want 200", resp.StatusCode)
	}
	// … and once it lands in canceled, a second DELETE conflicts too.
	waitJob(t, mgr, running.ID, stopped)
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/sweeps/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second DELETE = %d, want 409", resp.StatusCode)
	}
}

// TestServerResultsClampsTornTail simulates a crashed writer: a torn
// final line in the checkpoint (never repaired, because the job is
// terminal) must not reach /results clients.
func TestServerResultsClampsTornTail(t *testing.T) {
	srv, mgr := newTestServer(t)
	sp := Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2}
	job, _, err := mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr, job.ID, StatusDone)

	path := mgr.ResultsPath(job.ID)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"alpha":1,"k":2,"se`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	res, err := http.Get(srv.URL + "/sweeps/" + job.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, orig) {
		t.Fatalf("torn tail leaked: served %d bytes, want the %d-byte clean prefix",
			len(body), len(orig))
	}
}

func TestServerMetrics(t *testing.T) {
	srv, mgr := newTestServer(t)
	sp := Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2}
	job, _, err := mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr, job.ID, StatusDone)

	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"sweepd_cells_appended_total 2\n",
		"sweepd_cells_per_second ",
		"sweepd_cache_hits_total ",
		"sweepd_cache_disk_hits_total ",
		"sweepd_cache_misses_total ",
		"sweepd_cache_evictions_total ",
		"sweepd_cache_entries ",
		`sweepd_jobs{status="done"} 1`,
		`sweepd_jobs{status="running"} 0`,
		"sweepd_jobs_evicted_total 0\n",
		"sweepd_spill_bytes_reclaimed_total ",
		"sweepd_queue_depth 0\n",
		"sweepd_busy_workers 0\n",
		"sweepd_throttled_requests_total 0\n",
		"sweepd_quota_rejections_total 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}
