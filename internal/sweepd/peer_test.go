package sweepd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func postLease(t *testing.T, url string, req LeaseRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/peer/leases", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readLeaseLines collects the non-blank result lines of a lease stream.
func readLeaseLines(t *testing.T, r io.Reader) [][]byte {
	t.Helper()
	var out [][]byte
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue // heartbeat
		}
		out = append(out, append([]byte(nil), line...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPeerLeaseStreamsCanonicalLines: the lease endpoint must stream
// exactly the requested range, in canonical order, byte-identical to the
// lines a local job checkpoints for the same cells.
func TestPeerLeaseStreamsCanonicalLines(t *testing.T) {
	sp := Spec{N: 12, Alphas: []float64{0.5, 1}, Ks: []int{2, 1000}, Seeds: 2}
	sp.Normalize()

	// Reference: run the job on a plain local daemon and keep its lines.
	refStore, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	refMgr := NewManager(refStore, nil, 4)
	refJob, _, err := refMgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, refMgr, refJob.ID, StatusDone)
	refMgr.Close()
	refBytes, err := os.ReadFile(refStore.ResultsPath(refJob.ID))
	if err != nil {
		t.Fatal(err)
	}
	refLines := bytes.Split(bytes.TrimSuffix(refBytes, []byte("\n")), []byte("\n"))

	// Follower daemon: serve a mid-grid range over HTTP.
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, NewCache(1024), 2)
	defer mgr.Close()
	srv := httptest.NewServer(NewHandlerConfig(mgr, Config{}))
	defer srv.Close()

	start, end := 3, 7
	resp := postLease(t, srv.URL, LeaseRequest{Spec: sp, Start: start, End: end})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease status = %d", resp.StatusCode)
	}
	lines := readLeaseLines(t, resp.Body)
	if len(lines) != end-start {
		t.Fatalf("lease streamed %d lines, want %d", len(lines), end-start)
	}
	for i, line := range lines {
		if !bytes.Equal(line, refLines[start+i]) {
			t.Fatalf("lease line %d differs from local checkpoint line %d:\n%s\n%s", i, start+i, line, refLines[start+i])
		}
	}

	// The served cells must have warmed the follower's cache: re-leasing
	// the same range is served without recomputation.
	before := mgr.CacheStats()
	resp2 := postLease(t, srv.URL, LeaseRequest{Spec: sp, Start: start, End: end})
	defer resp2.Body.Close()
	lines2 := readLeaseLines(t, resp2.Body)
	if len(lines2) != end-start {
		t.Fatalf("second lease streamed %d lines", len(lines2))
	}
	after := mgr.CacheStats()
	if after.Hits-before.Hits != uint64(end-start) {
		t.Fatalf("second lease hit the cache %d times, want %d", after.Hits-before.Hits, end-start)
	}
	// Only the memory tier: no local checkpoint holds a lease's cells.
	if indexed(mgr.cache, sp.KernelHash()) || after.DiskHits != 0 {
		t.Fatalf("lease cells reached the cache's disk index: %+v", after)
	}
	for i := range lines2 {
		if !bytes.Equal(lines2[i], lines[i]) {
			t.Fatalf("cache-served lease line %d differs", i)
		}
	}

	// And what a hit answers is the cache's bytes, not a re-encoding of
	// them: mark one cached line in a way a decode + encode would erase.
	marked := append(bytes.TrimSuffix(lines[1], []byte("}")), `,"mark":1}`...)
	mgr.cache.Put(sp.KernelHash(), sp.CellAt(start+1), marked)
	resp3 := postLease(t, srv.URL, LeaseRequest{Spec: sp, Start: start, End: end})
	defer resp3.Body.Close()
	if lines3 := readLeaseLines(t, resp3.Body); len(lines3) != end-start || !bytes.Equal(lines3[1], marked) {
		t.Fatalf("a lease over cached cells did not answer the cached bytes:\n%s", bytes.Join(lines3, []byte("\n")))
	}
}

// TestCellsRangeMatchesCells pins the lease path's index arithmetic to
// the canonical expansion: both sides of the protocol must agree on
// which cell lives at which grid index.
func TestCellsRangeMatchesCells(t *testing.T) {
	sp := Spec{N: 10, Alphas: []float64{0.5, 1, 2, 5}, Ks: []int{1, 2, 1000}, Seeds: 3}
	sp.Normalize()
	full := sp.Cells()
	if sp.NumCells() != len(full) {
		t.Fatalf("NumCells = %d, len(Cells) = %d", sp.NumCells(), len(full))
	}
	if got := sp.CellsRange(0, len(full)); len(got) != len(full) {
		t.Fatalf("CellsRange(0, n) has %d cells", len(got))
	} else {
		for i := range full {
			if got[i] != full[i] {
				t.Fatalf("cell %d: CellsRange %+v != Cells %+v", i, got[i], full[i])
			}
		}
	}
	sub := sp.CellsRange(7, 23)
	for i, c := range sub {
		if c != full[7+i] {
			t.Fatalf("range cell %d: %+v != %+v", i, c, full[7+i])
		}
	}
}

// TestPeerLeaseRejections: malformed bodies, invalid specs, and bad
// ranges are all 400s — never a stream.
func TestPeerLeaseRejections(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, nil, 1)
	defer mgr.Close()
	srv := httptest.NewServer(NewHandlerConfig(mgr, Config{}))
	defer srv.Close()

	valid := Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2}
	valid.Normalize()

	cases := []struct {
		name string
		req  LeaseRequest
	}{
		{"invalid spec", LeaseRequest{Spec: Spec{N: 1}, Start: 0, End: 1}},
		{"negative start", LeaseRequest{Spec: valid, Start: -1, End: 1}},
		{"end past grid", LeaseRequest{Spec: valid, Start: 0, End: 3}},
		{"empty range", LeaseRequest{Spec: valid, Start: 1, End: 1}},
	}
	for _, tc := range cases {
		resp := postLease(t, srv.URL, tc.req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}

	good, err := json.Marshal(LeaseRequest{Spec: valid, Start: 0, End: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"{not json", string(good) + `{"x":1}`} {
		resp, err := http.Post(srv.URL+"/peer/leases", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestPeerLeaseHeartbeats: while a lease computes, the stream carries
// blank keep-alive lines so the leader's watchdog can tell slow from
// dead. The test holds the pool's one worker token, so the lease cannot
// finish a cell, and moves the manager's clock one keep-alive interval
// once the stream's ticker runs; it hands the token back once it has
// read the blank line.
func TestPeerLeaseHeartbeats(t *testing.T) {
	sp := Spec{N: 12, Alphas: []float64{0.5, 2}, Ks: []int{2, 3}, Seeds: 2}
	sp.Normalize()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clk := useFakeClock(t)
	mgr := NewManager(store, nil, 1)
	defer mgr.Close()
	srv := httptest.NewServer(NewHandlerConfig(mgr, Config{}))
	defer srv.Close()

	token := <-mgr.gate
	// The response headers go out with the first byte, the blank line.
	body, err := json.Marshal(LeaseRequest{Spec: sp, Start: 0, End: sp.NumCells()})
	if err != nil {
		t.Fatal(err)
	}
	type posted struct {
		resp *http.Response
		err  error
	}
	done := make(chan posted, 1)
	client := &http.Client{Timeout: 30 * time.Second} // a missing blank line fails, not hangs
	go func() {
		resp, err := client.Post(srv.URL+"/peer/leases", "application/json", bytes.NewReader(body))
		done <- posted{resp, err}
	}()
	clk.awaitPending(t, 1)
	clk.Advance(keepAliveInterval)
	p := <-done
	if p.err != nil {
		t.Fatal(p.err)
	}
	resp := p.resp
	defer resp.Body.Close()
	stream := bufio.NewReader(resp.Body)
	first, err := stream.ReadBytes('\n')
	if err != nil || len(bytes.TrimSpace(first)) != 0 {
		t.Fatalf("a lease with no worker to run it opened with %q, %v; want a blank heartbeat line", first, err)
	}
	mgr.gate <- token
	if got := len(readLeaseLines(t, stream)); got != sp.NumCells() {
		t.Fatalf("after the heartbeat the stream carried %d result lines, want %d", got, sp.NumCells())
	}
}

// fakeMembership records hellos and serves a canned member table —
// the HTTP layer's view of cluster.Registry without the import cycle.
type fakeMembership struct {
	mu      sync.Mutex
	hellos  []string
	members []MemberInfo
}

func (f *fakeMembership) Hello(url string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hellos = append(f.hellos, url)
}

func (f *fakeMembership) Members() []MemberInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]MemberInfo(nil), f.members...)
}

func (f *fakeMembership) ClusterStats() ClusterStats {
	return ClusterStats{
		InstanceID:     "fake-instance",
		MembersByState: map[string]int{"alive": len(f.members), "suspect": 0, "down": 0},
		Probes:         7,
	}
}

// The rest of Cluster, for tests that only exercise membership: no
// advertise URL, no lease table, no replica table.
func (f *fakeMembership) Self() string                   { return "" }
func (f *fakeMembership) Leases() []JobLease             { return nil }
func (f *fakeMembership) Tombstones() []Tombstone        { return nil }
func (f *fakeMembership) ReplicaHolders(string) []string { return nil }

// TestPeerHelloAndMembers covers the membership endpoints: a valid hello
// registers the announcer and returns the member table (the joiner's
// first gossip pull), bad URLs are 400s that never reach the registry,
// and /peer/members serves the table directly.
func TestPeerHelloAndMembers(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, nil, 1)
	defer mgr.Close()
	fm := &fakeMembership{members: []MemberInfo{
		{URL: "http://self:1", State: "alive", Self: true},
		{URL: "http://a:1", State: "suspect"},
	}}
	srv := httptest.NewServer(NewHandlerConfig(mgr, Config{Cluster: fm}))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/peer/hello", "application/json",
		strings.NewReader(`{"advertise_url":"http://joiner:9/"}`))
	if err != nil {
		t.Fatal(err)
	}
	var mr MembersResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hello status = %d", resp.StatusCode)
	}
	if len(fm.hellos) != 1 || fm.hellos[0] != "http://joiner:9" {
		t.Fatalf("registry saw hellos %v, want the normalized advertise URL", fm.hellos)
	}
	if len(mr.Members) != 2 || !mr.Members[0].Self {
		t.Fatalf("hello response members = %+v", mr.Members)
	}

	for _, bad := range []string{
		`{"advertise_url":""}`,
		`{"advertise_url":"not a url"}`,
		`{"advertise_url":"ftp://a:1"}`,
		`{"advertise_url":"/just/a/path"}`,
		`{not json`,
		`{"advertise_url":"http://a:1","extra":true}`,
		`{"advertise_url":"http://a:1"}{"x":1}`, // exactly one JSON value
	} {
		resp, err := http.Post(srv.URL+"/peer/hello", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("hello %s: status = %d, want 400", bad, resp.StatusCode)
		}
	}
	if len(fm.hellos) != 1 {
		t.Fatalf("a rejected hello reached the registry: %v", fm.hellos)
	}

	resp, err = http.Get(srv.URL + "/peer/members")
	if err != nil {
		t.Fatal(err)
	}
	var mr2 MembersResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(mr2.Members) != 2 || mr2.Members[1].URL != "http://a:1" {
		t.Fatalf("members = %+v", mr2.Members)
	}
	// The pull is the peers' health probe: it names the serving process
	// and its capacity.
	if mr2.InstanceID != "fake-instance" || mr2.Load == nil {
		t.Fatalf("members payload identity = %q, load = %+v", mr2.InstanceID, mr2.Load)
	}

	// The cluster section must surface in /healthz and /metrics.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(hb), `"cluster"`) {
		t.Fatalf("healthz has no cluster section: %s", hb)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`sweepd_cluster_members{state="alive"} 2`,
		`sweepd_cluster_peer_state{peer="http://a:1",state="suspect"} 1`,
		`sweepd_cluster_peer_state{peer="http://a:1",state="alive"} 0`,
		"sweepd_cluster_probes_total 7",
	} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("metrics missing %q:\n%s", want, mb)
		}
	}
	if strings.Contains(string(mb), `peer="http://self:1"`) {
		t.Fatal("metrics emitted a per-peer series for self")
	}
}

// TestPeerMembershipDisabled: without a registry the membership
// endpoints refuse with 503 — never a silent empty table.
func TestPeerMembershipDisabled(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, nil, 1)
	defer mgr.Close()
	srv := httptest.NewServer(NewHandlerConfig(mgr, Config{}))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/peer/hello", "application/json",
		strings.NewReader(`{"advertise_url":"http://a:1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("hello status = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/peer/members")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("members status = %d, want 503", resp.StatusCode)
	}
}

// TestNormalizePeerURLs pins the shared URL hygiene all three layers
// (-peers, shard.New, the registry) rely on: blanks go, spellings of one
// URL collapse, and the first spelling keeps its place.
func TestNormalizePeerURLs(t *testing.T) {
	for _, tc := range []struct{ in, want []string }{
		{[]string{" http://a:1/ ", "http://a:1", "", "http://b:2//", "http://a:1/"}, []string{"http://a:1", "http://b:2"}},
		{[]string{"http://b:2", "http://a:1", "http://b:2/"}, []string{"http://b:2", "http://a:1"}},
	} {
		if got := NormalizePeerURLs(tc.in); !slices.Equal(got, tc.want) {
			t.Fatalf("NormalizePeerURLs(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestPeerRateLimitClass: the /peer/* endpoints draw from their own
// bucket — a peer-rate limit must not throttle interactive reads, and
// vice versa — except GET /peer/members, the liveness probe, which no
// limit may ever answer with 429.
func TestPeerRateLimitClass(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	useFakeClock(t) // no token accrues between requests
	mgr := NewManager(store, nil, 1)
	defer mgr.Close()
	_, handler := buildHandler(mgr, Config{PeerRate: 1, Cluster: &fakeMembership{}})
	srv := httptest.NewServer(handler)
	defer srv.Close()
	pullMembers := func(when string) {
		t.Helper()
		for i := 0; i < 3; i++ {
			resp, err := http.Get(srv.URL + "/peer/members")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /peer/members %s, pull %d: status = %d, want 200", when, i+1, resp.StatusCode)
			}
		}
	}
	pullMembers("before any peer call")

	// First peer request takes the only token (and fails validation —
	// irrelevant, the limiter runs first); the second must be 429.
	body := []byte(`{"spec":{"n":1},"start":0,"end":1}`)
	r1, err := http.Post(srv.URL+"/peer/leases", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	if r1.StatusCode != http.StatusBadRequest {
		t.Fatalf("first peer request status = %d, want 400", r1.StatusCode)
	}
	r2, err := http.Post(srv.URL+"/peer/leases", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second peer request status = %d, want 429", r2.StatusCode)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	pullMembers("with the peer bucket dry")
	// Interactive reads are untouched by the drained peer bucket.
	r3, err := http.Get(srv.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("read status = %d, want 200", r3.StatusCode)
	}
}
