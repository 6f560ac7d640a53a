package sweepd

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sweepd/store"
)

// newReplicaRig builds a lifecycle rig with replica storage enabled —
// the receiving side of a replication push.
// wholeBody is the body of a push of the job's whole files: what a leader
// sends a member that stores nothing of the job.
func (rp *Replicator) wholeBody(job Job) ([]byte, error) {
	data, err := rp.readTails(job, [2]int64{})
	if err != nil {
		return nil, err
	}
	return rp.buildBody(job, [2]int64{}, data)
}

func newReplicaRig(t *testing.T, cfg Config) (*Manager, *handler, *httptest.Server, string) {
	t.Helper()
	mgr, _, h, srv, dir := newLifecycleRig(t, cfg)
	rs, err := store.OpenReplicaSet(filepath.Join(dir, "replicas"))
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetReplicas(rs)
	return mgr, h, srv, dir
}

// runDoneJob submits a spec on the rig's manager and waits for the
// terminal snapshot.
func runDoneJob(t *testing.T, mgr *Manager, sp Spec) Job {
	t.Helper()
	sp.Normalize()
	job, _, err := mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	return waitStatus(t, mgr, job.ID, StatusDone)
}

func getRaw(t *testing.T, url string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestReplicationPushAndReplicaServedReads is the tentpole contract at
// the package level: a leader pushes a finished trajectory job to a
// follower; the follower then serves the job snapshot, results, and
// sidecar from its replica — byte-identical to the leader — with a
// working ETag.
func TestReplicationPushAndReplicaServedReads(t *testing.T) {
	leaderMgr, _, _, leaderSrv, _ := newLifecycleRig(t, Config{})
	_, fh, followerSrv, _ := newReplicaRig(t, Config{})

	sp := Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2, Trajectories: true}
	job := runDoneJob(t, leaderMgr, sp)

	rp := NewReplicator(ReplicatorOptions{
		Store:  leaderMgr.store,
		Fanout: 1,
		Self:   func() string { return leaderSrv.URL },
		Targets: func() []MemberLoad {
			return []MemberLoad{{URL: followerSrv.URL}}
		},
	})
	if err := rp.replicate(job); err != nil {
		t.Fatal(err)
	}
	if st := rp.Stats(); st.Pushed != 1 || st.PushFailures != 0 || st.BytesPushed == 0 {
		t.Fatalf("push stats = %+v", st)
	}
	if got := fh.replicasReceived.Load(); got != 1 {
		t.Fatalf("follower received %d replicas, want 1", got)
	}

	// The follower never ran the job but must now answer for it.
	resp, body := getRaw(t, followerSrv.URL+"/sweeps/"+job.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower GET /sweeps/%s = %d: %s", job.ID, resp.StatusCode, body)
	}
	var snap Job
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Replica || snap.Status != StatusDone || snap.Completed != snap.Total {
		t.Fatalf("replica-served snapshot = %+v; want done, complete, Replica=true", snap)
	}

	// Byte-identical results and sidecar, leader vs replica.
	_, leaderResults := getRaw(t, leaderSrv.URL+"/sweeps/"+job.ID+"/results", nil)
	resp, replicaResults := getRaw(t, followerSrv.URL+"/sweeps/"+job.ID+"/results", nil)
	if resp.StatusCode != http.StatusOK || string(replicaResults) != string(leaderResults) {
		t.Fatalf("replica results differ from leader's (status %d, %d vs %d bytes)",
			resp.StatusCode, len(replicaResults), len(leaderResults))
	}
	if got := resp.Header.Get("X-Sweep-Status"); got != string(StatusDone) {
		t.Fatalf("replica results X-Sweep-Status = %q", got)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("replica-served done results carry no ETag")
	}
	_, leaderTraj := getRaw(t, leaderSrv.URL+"/sweeps/"+job.ID+"/trajectories", nil)
	resp, replicaTraj := getRaw(t, followerSrv.URL+"/sweeps/"+job.ID+"/trajectories", nil)
	if resp.StatusCode != http.StatusOK || string(replicaTraj) != string(leaderTraj) {
		t.Fatalf("replica trajectories differ from leader's (status %d)", resp.StatusCode)
	}
	if fh.replicaReads.Load() == 0 {
		t.Fatal("replica read counter never moved")
	}

	// Conditional poll: the immutable validator answers 304, no body —
	// and the leader mints the same ETag (determinism), so a client can
	// revalidate against any holder. If-None-Match compares weakly, so
	// the W/ spelling a proxy may send revalidates too.
	for _, inm := range []string{etag, "W/" + etag} {
		resp, body = getRaw(t, followerSrv.URL+"/sweeps/"+job.ID+"/results", map[string]string{"If-None-Match": inm})
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("If-None-Match %s = %d with %d body bytes, want 304 empty", inm, resp.StatusCode, len(body))
		}
		resp, _ = getRaw(t, leaderSrv.URL+"/sweeps/"+job.ID+"/results", map[string]string{"If-None-Match": inm})
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("leader If-None-Match %s with replica ETag = %d, want 304", inm, resp.StatusCode)
		}
	}
	if fh.notModified.Load() == 0 {
		t.Fatal("not-modified counter never moved")
	}

	// Re-replication at the same generation is idempotent: the push
	// succeeds (200) but the follower stores nothing new.
	if err := rp.replicate(job); err != nil {
		t.Fatal(err)
	}
	if got := fh.replicasReceived.Load(); got != 1 {
		t.Fatalf("same-generation re-push stored again (received=%d)", got)
	}

	// A holder already counted against the fanout means no push at all.
	rp2 := NewReplicator(ReplicatorOptions{
		Store:   leaderMgr.store,
		Fanout:  1,
		Targets: func() []MemberLoad { return []MemberLoad{{URL: followerSrv.URL}} },
		Holders: func(string) []string { return []string{followerSrv.URL} },
	})
	if err := rp2.replicate(job); err != nil {
		t.Fatal(err)
	}
	if st := rp2.Stats(); st.Pushed != 0 {
		t.Fatalf("deficit-free replicate still pushed %d", st.Pushed)
	}
}

// TestReplicateReadsNothingWithoutADeficitOrACandidate: a done job that is
// already at fan-out (every finished job re-fired after a restart, once
// ads have gossiped) or has no member to go to costs no read of its
// checkpoint — shown by an absent results file being no error.
func TestReplicateReadsNothingWithoutADeficitOrACandidate(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2}
	sp.Normalize()
	job := Job{ID: sp.ID(), Spec: sp, Status: StatusDone} // no results.jsonl anywhere
	for name, opts := range map[string]ReplicatorOptions{
		"at fan-out": {
			Targets: func() []MemberLoad { return []MemberLoad{{URL: "http://a"}, {URL: "http://b"}} },
			Holders: func(string) []string { return []string{"http://a"} },
		},
		"no candidate": {
			Self:    func() string { return "http://self" },
			Targets: func() []MemberLoad { return []MemberLoad{{URL: "http://self"}} },
		},
	} {
		opts.Store, opts.Fanout = st, 1
		rp := NewReplicator(opts)
		if err := rp.replicate(job); err != nil {
			t.Errorf("%s: Replicate = %v, want nil", name, err)
		}
		if got := rp.Stats(); got != (ReplicaStats{}) {
			t.Errorf("%s: stats = %+v, want no push attempted", name, got)
		}
	}
}

// captureLog sends what the default slog logger writes to a buffer until
// the test ends. No test installs a handler, so slog's default one writes
// through the log package, whose output is what is swapped here.
func captureLog(t *testing.T) *lockedBuffer {
	t.Helper()
	b := new(lockedBuffer)
	prev := log.Writer()
	log.SetOutput(b)
	t.Cleanup(func() { log.SetOutput(prev) })
	return b
}

// lockedBuffer is a bytes.Buffer that goroutines outliving the call under
// test may still write to while the test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestReplicateWarnsOnlyWithACandidate: a lone daemon — no member to push
// to — finishes every job short of its fan-out, and says nothing about it
// (it used to log one under-replication line per job). A push that fails
// while a candidate exists is still a WARN record naming the job and the
// member.
func TestReplicateWarnsOnlyWithACandidate(t *testing.T) {
	leaderMgr, _, _, _, _ := newLifecycleRig(t, Config{})
	job := runDoneJob(t, leaderMgr, Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2})
	logs := captureLog(t)

	lone := NewReplicator(ReplicatorOptions{
		Store:   leaderMgr.store,
		Self:    func() string { return "http://self" },
		Targets: func() []MemberLoad { return []MemberLoad{{URL: "http://self"}} },
	})
	if err := lone.replicate(job); err != nil {
		t.Fatalf("lone Replicate = %v", err)
	}
	if got := logs.String(); strings.Contains(got, job.ID) {
		t.Fatalf("a lone daemon logged about job %s:\n%s", job.ID, got)
	}

	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer refusing.Close()
	short := NewReplicator(ReplicatorOptions{
		Store:   leaderMgr.store,
		Fanout:  1,
		Targets: func() []MemberLoad { return []MemberLoad{{URL: refusing.URL}} },
	})
	if err := short.replicate(job); err == nil {
		t.Fatal("a push to a refusing member succeeded")
	}
	var warned bool
	for _, line := range strings.Split(logs.String(), "\n") {
		warned = warned || strings.Contains(line, "WARN") &&
			strings.Contains(line, "job="+job.ID) && strings.Contains(line, "member="+refusing.URL)
	}
	if !warned {
		t.Fatalf("no WARN record with job=%s member=%s:\n%s", job.ID, refusing.URL, logs.String())
	}
}

// TestReplicaTrajectories404CountsNoRead: a replica of a job that did not
// opt into trajectories answers /trajectories with 404, and a 404 is not a
// replica-served read.
func TestReplicaTrajectories404CountsNoRead(t *testing.T) {
	leaderMgr, _, _, _, _ := newLifecycleRig(t, Config{})
	_, fh, followerSrv, _ := newReplicaRig(t, Config{})
	job := runDoneJob(t, leaderMgr, Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2})
	body, err := NewReplicator(ReplicatorOptions{Store: leaderMgr.store}).wholeBody(job)
	if err != nil {
		t.Fatal(err)
	}
	if code := postReplica(t, followerSrv.URL, job.ID, string(body)); code != http.StatusOK {
		t.Fatalf("replica push = %d", code)
	}

	resp, _ := getRaw(t, followerSrv.URL+"/sweeps/"+job.ID+"/trajectories", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("replica /trajectories of a job without them = %d, want 404", resp.StatusCode)
	}
	if got := fh.replicaReads.Load(); got != 0 {
		t.Fatalf("the 404 counted %d replica reads, want 0", got)
	}
	// The job is replica-served: /results is, and counts.
	if resp, _ := getRaw(t, followerSrv.URL+"/sweeps/"+job.ID+"/results", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("replica /results = %d", resp.StatusCode)
	}
	if got := fh.replicaReads.Load(); got != 1 {
		t.Fatalf("replica reads after /results = %d, want 1", got)
	}
}

// TestReplicaPushWaitsOutReplicaRate: the receiver's -replica-rate class
// sheds the second of two back-to-back pushes with a 429. That is load
// shedding, not a failed target: the push waits out Retry-After and
// lands, instead of leaving the job under-replicated until a restart.
func TestReplicaPushWaitsOutReplicaRate(t *testing.T) {
	leaderMgr, clk, _, leaderSrv, _ := newLifecycleRig(t, Config{})
	_, fh, followerSrv, _ := newReplicaRig(t, Config{ReplicaRate: 1})
	rp := NewReplicator(ReplicatorOptions{
		Store:   leaderMgr.store,
		Fanout:  1,
		Self:    func() string { return leaderSrv.URL },
		Targets: func() []MemberLoad { return []MemberLoad{{URL: followerSrv.URL}} },
	})
	for _, seeds := range []int{1, 2} {
		job := runDoneJob(t, leaderMgr, Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: seeds})
		pushed := make(chan error, 1)
		go func() { pushed <- rp.replicate(job) }()
		if seeds == 2 {
			// The clock has not moved since the first push took the
			// receiver's token: the second waits out Retry-After, and
			// the same step refills the bucket.
			clk.awaitPending(t, 1)
			clk.Advance(time.Second)
		}
		if err := <-pushed; err != nil {
			t.Fatal(err)
		}
	}
	if st := rp.Stats(); st.Pushed != 2 || st.PushFailures != 0 {
		t.Fatalf("push stats = %+v; want both pushed, none failed", st)
	}
	if got := fh.replicasReceived.Load(); got != 2 {
		t.Fatalf("follower received %d replicas, want 2", got)
	}
	if fh.throttled.Load() == 0 {
		t.Fatal("the second push was never throttled; the test did not exercise the 429 path")
	}
}

// TestReplicatorCloseDoesNotWaitOnBlackHoledPeer: a push stuck on a member
// that accepts the request and never answers must not hold Close — it
// cancels the replicator's lifetime context, which every push carries.
func TestReplicatorCloseDoesNotWaitOnBlackHoledPeer(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}))
	defer srv.Close()
	defer close(release) // only after Close has returned

	leaderMgr, _, _, _, _ := newLifecycleRig(t, Config{})
	job := runDoneJob(t, leaderMgr, Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2})
	rp := NewReplicator(ReplicatorOptions{
		Store:   leaderMgr.store,
		Fanout:  1,
		Targets: func() []MemberLoad { return []MemberLoad{{URL: srv.URL}} },
	})
	rp.JobFinished(job)
	<-entered

	start := time.Now()
	rp.Close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close waited %v on a peer that never answers", elapsed)
	}
}

// postReplica pushes one replica body and returns the status it drew.
func postReplica(t *testing.T, base, id, body string) int {
	t.Helper()
	resp, err := http.Post(base+"/peer/replicas/"+id, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode
}

// TestReceiveReplicaVerification exercises the receive guards: nothing
// unverified lands, and generations are monotonic.
func TestReceiveReplicaVerification(t *testing.T) {
	leaderMgr, _, _, _, _ := newLifecycleRig(t, Config{})
	_, fh, followerSrv, _ := newReplicaRig(t, Config{})

	sp := Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2}
	job := runDoneJob(t, leaderMgr, sp)

	rp := NewReplicator(ReplicatorOptions{Store: leaderMgr.store, Generation: func(string) uint64 { return 5 }})
	body, err := rp.wholeBody(job)
	if err != nil {
		t.Fatal(err)
	}
	post := func(id string, b []byte) int { return postReplica(t, followerSrv.URL, id, string(b)) }
	mutate := func(f func(m *store.ReplicaManifest)) []byte {
		nl := strings.IndexByte(string(body), '\n')
		var m store.ReplicaManifest
		if err := json.Unmarshal(body[:nl], &m); err != nil {
			t.Fatal(err)
		}
		f(&m)
		head, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return append(append(head, '\n'), body[nl+1:]...)
	}

	// A push under a different job ID must not land under either ID.
	if code := post("00000000000000aa", body); code != http.StatusBadRequest {
		t.Fatalf("mismatched URL id accepted: %d", code)
	}
	// A kernel-hash mismatch is a corrupt or mislabeled push.
	if code := post(job.ID, mutate(func(m *store.ReplicaManifest) { m.Kernel = "0badc0de" })); code != http.StatusBadRequest {
		t.Fatalf("bad kernel accepted: %d", code)
	}
	// Only done jobs replicate.
	if code := post(job.ID, mutate(func(m *store.ReplicaManifest) { m.Status = "canceled" })); code != http.StatusBadRequest {
		t.Fatalf("non-done status accepted: %d", code)
	}
	// A truncated checkpoint (one line short) must be rejected.
	nl := strings.IndexByte(string(body), '\n')
	tail := body[nl+1:]
	lastLine := strings.LastIndexByte(strings.TrimRight(string(tail), "\n"), '\n')
	short := append(append([]byte{}, body[:nl+1]...), tail[:lastLine+1]...)
	if code := post(job.ID, short); code != http.StatusBadRequest {
		t.Fatalf("short checkpoint accepted: %d", code)
	}
	if got := fh.replicasReceived.Load(); got != 0 {
		t.Fatalf("%d rejected pushes were counted as received", got)
	}

	// Generation guard: gen 5 lands; a deposed leader's gen 4 answers
	// 409 and changes nothing; gen 5 again is idempotent.
	if code := post(job.ID, body); code != http.StatusOK {
		t.Fatalf("valid push = %d", code)
	}
	if code := post(job.ID, mutate(func(m *store.ReplicaManifest) { m.Generation = 4 })); code != http.StatusConflict {
		t.Fatalf("lower-generation push = %d, want 409", code)
	}
	if code := post(job.ID, body); code != http.StatusOK {
		t.Fatalf("same-generation re-push = %d, want 200", code)
	}
	if got := fh.replicasReceived.Load(); got != 1 {
		t.Fatalf("received counter = %d, want exactly 1 store", got)
	}
}

// fakeReplicaMesh is a Cluster stub for the redirect path: a self URL, a
// replica table and a lease table, nothing else.
type fakeReplicaMesh struct {
	self    string
	holders map[string][]string
	leases  []JobLease
}

func (f *fakeReplicaMesh) Hello(string)                      {}
func (f *fakeReplicaMesh) Members() []MemberInfo             { return nil }
func (f *fakeReplicaMesh) ClusterStats() ClusterStats        { return ClusterStats{} }
func (f *fakeReplicaMesh) Self() string                      { return f.self }
func (f *fakeReplicaMesh) ReplicaHolders(id string) []string { return f.holders[id] }
func (f *fakeReplicaMesh) Leases() []JobLease                { return f.leases }
func (f *fakeReplicaMesh) Tombstones() []Tombstone           { return nil }

// TestReadRedirectOneHop: a daemon holding neither primary nor replica
// answers 307 toward a holder, else toward the job's lease owner, and the
// hop marker prevents a second bounce.
func TestReadRedirectOneHop(t *testing.T) {
	id := "00000000000000ab"
	mesh := &fakeReplicaMesh{
		self:    "http://self.invalid",
		holders: map[string][]string{id: {"http://holder.invalid"}},
		leases: []JobLease{
			{JobID: "00000000000000ef", Owner: "http://owner.invalid", Generation: 2},
			{JobID: "00000000000000cd", Owner: "http://self.invalid", Generation: 1},
		},
	}
	_, _, _, srv, _ := newLifecycleRig(t, Config{Cluster: mesh})

	resp, _ := getRaw(t, srv.URL+"/sweeps/"+id+"/results", nil)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("unknown-job read = %d, want 307", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if !strings.HasPrefix(loc, "http://holder.invalid/sweeps/"+id+"/results") || !strings.Contains(loc, "hop=1") {
		t.Fatalf("redirect Location = %q", loc)
	}

	// The hop marker must stop the chain dead: 404, not another 307.
	resp, _ = getRaw(t, srv.URL+"/sweeps/"+id+"/results?hop=1", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("hop=1 read = %d, want 404", resp.StatusCode)
	}

	// No holder: the lease owner (an adopter, say) gets the hop.
	resp, _ = getRaw(t, srv.URL+"/sweeps/00000000000000ef", nil)
	if loc := resp.Header.Get("Location"); resp.StatusCode != http.StatusTemporaryRedirect || loc != "http://owner.invalid/sweeps/00000000000000ef?hop=1" {
		t.Fatalf("leased-job read = %d → %q, want 307 to the lease owner", resp.StatusCode, loc)
	}

	// No holder and only our own lease: nothing to point at, plain 404.
	resp, _ = getRaw(t, srv.URL+"/sweeps/00000000000000cd/results", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("holderless read = %d, want 404", resp.StatusCode)
	}
}

// TestReceiveReplicaRejectsNonCanonicalFraming: a replica is stored byte
// for byte and served under the leader's strong ETag, so a push whose
// records decode correctly but are framed differently — padded, separated
// by blank lines, followed by a torn tail — must not land. The honest
// body then does, and reads back identical to the leader's.
func TestReceiveReplicaRejectsNonCanonicalFraming(t *testing.T) {
	leaderMgr, _, _, leaderSrv, _ := newLifecycleRig(t, Config{})
	_, fh, followerSrv, _ := newReplicaRig(t, Config{})

	sp := Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2, Trajectories: true}
	job := runDoneJob(t, leaderMgr, sp)
	body, err := NewReplicator(ReplicatorOptions{Store: leaderMgr.store}).wholeBody(job)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(body), "\n") // manifest, 2 records, 2 sidecar records, ""
	if len(lines) != 6 || lines[5] != "" {
		t.Fatalf("honest body has %d lines, want manifest + 2 + 2", len(lines)-1)
	}
	rewrite := func(f func(i int, line string) string) string {
		var b strings.Builder
		for i, line := range lines[:5] {
			if i > 0 {
				line = f(i, line)
			}
			b.WriteString(line)
		}
		return b.String()
	}
	cases := map[string]string{
		"padded records": rewrite(func(_ int, line string) string {
			return "  " + strings.TrimSuffix(line, "\n") + " \t\n"
		}),
		"blank line before each record": rewrite(func(_ int, line string) string { return "\n" + line }),
		"blank line between checkpoint and sidecar": rewrite(func(i int, line string) string {
			if i == 3 {
				return "\n" + line
			}
			return line
		}),
		"torn tail after the sidecar": string(body) + `{"alpha":1`,
	}
	post := func(b string) int { return postReplica(t, followerSrv.URL, job.ID, b) }
	for name, b := range cases {
		if code := post(b); code != http.StatusBadRequest {
			t.Errorf("%s: push answered %d, want 400", name, code)
		}
	}
	if got := fh.replicasReceived.Load(); got != 0 {
		t.Fatalf("%d non-canonical pushes were stored", got)
	}

	if code := post(string(body)); code != http.StatusOK {
		t.Fatalf("honest push = %d", code)
	}
	for _, path := range []string{"/results", "/trajectories"} {
		lresp, want := getRaw(t, leaderSrv.URL+"/sweeps/"+job.ID+path, nil)
		fresp, got := getRaw(t, followerSrv.URL+"/sweeps/"+job.ID+path, nil)
		if fresp.StatusCode != http.StatusOK || string(got) != string(want) {
			t.Fatalf("%s: follower serves %d bytes (status %d), leader %d", path, len(got), fresp.StatusCode, len(want))
		}
		if l, f := lresp.Header.Get("ETag"), fresp.Header.Get("ETag"); l == "" || l != f {
			t.Fatalf("%s: ETag leader %q, follower %q", path, l, f)
		}
	}
}

// TestReadRejectsMalformedJobID: ServeMux hands {id} over unescaped, so
// "..%2Fevil" arrives as "../evil". With a manifest planted one level
// above the replica root that names itself "../evil", the replica read
// door used to join the id into a path and serve the planted file.
func TestReadRejectsMalformedJobID(t *testing.T) {
	_, _, srv, dir := newReplicaRig(t, Config{})
	sp := Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 1}
	sp.Normalize()
	specJSON, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := json.Marshal(store.ReplicaManifest{
		JobID: "../evil", Kernel: sp.KernelHash(), Generation: 1, Status: string(StatusDone), Spec: specJSON,
	})
	if err != nil {
		t.Fatal(err)
	}
	evil := filepath.Join(dir, "evil")
	if err := os.MkdirAll(evil, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{"manifest.json": string(manifest), "results.jsonl": "planted\n"} {
		if err := os.WriteFile(filepath.Join(evil, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"", "/results", "/summary", "/trajectories"} {
		resp, body := getRaw(t, srv.URL+"/sweeps/..%2Fevil"+path, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /sweeps/..%%2Fevil%s = %d, want 404: %s", path, resp.StatusCode, body)
		}
	}
}

// TestReplicaExpiryReleasesSummaryState: a /summary served from a replica
// freezes per-job state in the handler like any done job's, and the GC
// pass that expires the replica must release it — the manager never ran
// the job, so no eviction of its own ever would.
func TestReplicaExpiryReleasesSummaryState(t *testing.T) {
	// The receiver stamps StoredAt and expires replicas on the daemon's
	// one clock: on a clock two days behind the wall, a wall-clock stamp
	// would never expire.
	clk := useFakeClock(t)
	clk.Advance(-48 * time.Hour)
	leaderMgr, _, _, _, _ := newLifecycleRig(t, Config{})
	mgr, h, srv, _ := newReplicaRig(t, Config{})

	job := runDoneJob(t, leaderMgr, Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2})
	body, err := NewReplicator(ReplicatorOptions{Store: leaderMgr.store}).wholeBody(job)
	if err != nil {
		t.Fatal(err)
	}
	if code := postReplica(t, srv.URL, job.ID, string(body)); code != http.StatusOK {
		t.Fatalf("replica push = %d", code)
	}
	var sum SweepSummary
	if code := getJSON(t, srv.URL+"/sweeps/"+job.ID+"/summary", &sum); code != http.StatusOK || sum.Cells != 2 {
		t.Fatalf("replica-served summary = %d, %d cells", code, sum.Cells)
	}
	held := func() int {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.summaries)
	}
	if held() != 1 {
		t.Fatalf("handler holds %d summaries after a replica-served read, want 1", held())
	}
	mgr.gcOnce(time.Hour)
	if ids := mgr.Replicas().List(); len(ids) != 1 {
		t.Fatalf("replica expired inside its TTL: held %v", ids)
	}
	clk.Advance(2 * time.Hour)
	mgr.gcOnce(time.Hour)
	if ids := mgr.Replicas().List(); len(ids) != 0 {
		t.Fatalf("replica survived its TTL: %v", ids)
	}
	if held() != 0 {
		t.Fatalf("handler still holds %d summaries after the replica expired", held())
	}
	if up := mgr.Stats().Uptime; up != 2*time.Hour {
		t.Fatalf("uptime = %v on the manager's clock, want 2h", up)
	}
}

// TestAdoptStagesOutsideManagerLock: the part of adoption that takes as
// long as the seed is big — writing the temp file — must not need the
// manager lock that /healthz, the peers' probes and every running job's
// counters wait on. Staging completes while the test holds it.
func TestAdoptStagesOutsideManagerLock(t *testing.T) {
	sp := Spec{N: 10, Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 4}
	sp.Normalize()
	refMgr, _, _, _, _ := newLifecycleRig(t, Config{})
	job := runDoneJob(t, refMgr, sp)
	want, err := os.ReadFile(refMgr.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	mgr, _, _, _, _ := newLifecycleRig(t, Config{})
	if _, _, err := mgr.store.CreateJob(sp); err != nil {
		t.Fatal(err)
	}

	staged := make(chan string, 1)
	mgr.mu.Lock()
	go func() { staged <- stage(mgr.store.ResultsPath(sp.ID()), want) }()
	var tmp string
	select {
	case tmp = <-staged:
	case <-time.After(30 * time.Second):
	}
	mgr.mu.Unlock()
	if tmp == "" {
		t.Fatal("stage did not finish while the manager lock was held")
	}
	if got, err := os.ReadFile(tmp); err != nil || string(got) != string(want) {
		t.Fatalf("staged %d bytes (%v), want the %d-byte seed", len(got), err, len(want))
	}
}

// TestAdoptSeedsOnlyCanonicalPrefix: adoption imports a fetched tail only
// up to the first record that is not framed the way this daemon's own
// writer frames it, recomputes the rest, and ends byte-identical to an
// uninterrupted run either way.
func TestAdoptSeedsOnlyCanonicalPrefix(t *testing.T) {
	sp := Spec{N: 10, Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 4}
	sp.Normalize()
	refMgr, _, _, _, _ := newLifecycleRig(t, Config{})
	job := runDoneJob(t, refMgr, sp)
	want, err := os.ReadFile(refMgr.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	recs := strings.SplitAfter(string(want), "\n")
	if len(recs) != 9 {
		t.Fatalf("reference checkpoint has %d records, want 8", len(recs)-1)
	}
	for name, tc := range map[string]struct {
		tail   string
		seeded uint64
	}{
		"honest":                       {string(want), 8},
		"blank line after record 3":    {strings.Join(recs[:3], "") + "\n" + strings.Join(recs[3:], ""), 3},
		"record 2 padded":              {strings.Join(recs[:2], "") + " " + strings.Join(recs[2:], ""), 2},
		"torn tail after 5 records":    {strings.Join(recs[:5], "") + recs[5][:20], 5},
		"records 1 and 2 swapped":      {recs[0] + recs[2] + recs[1] + strings.Join(recs[3:], ""), 1},
		"a ninth record past the grid": {string(want) + recs[7], 8},
	} {
		mgr, _, _, _, _ := newLifecycleRig(t, Config{})
		if _, _, err := mgr.Adopt(sp, []byte(tc.tail), nil); err != nil {
			t.Fatal(err)
		}
		waitStatus(t, mgr, job.ID, StatusDone)
		if got := 8 - mgr.Stats().CellsAppended; got != tc.seeded {
			t.Errorf("%s: seeded %d records, want %d", name, got, tc.seeded)
		}
		got, err := os.ReadFile(mgr.ResultsPath(job.ID))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: adopted checkpoint differs from the uninterrupted run's (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// TestAdoptKeepsALocalCheckpoint: a job whose checkpoint already holds
// records on this daemon keeps its own files, sidecar included, whatever
// seed an adoption brings; the run appends the cells after them.
func TestAdoptKeepsALocalCheckpoint(t *testing.T) {
	sp := Spec{N: 8, Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 2, Trajectories: true}
	sp.Normalize()
	_, ck, side := honestReplica(t, sp)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st.CreateJob(sp)
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{st.ResultsPath(id), st.TrajectoryPath(id)}
	for k, recs := range [][][]byte{ck, side} {
		if err := os.WriteFile(paths[k], recs[0], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mgr := NewManager(st, nil, 1)
	if _, _, err := mgr.Adopt(sp, bytes.Join(ck, nil), bytes.Join(side, nil)); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr, id, StatusDone)
	mgr.Close()
	if got, want := mgr.Stats().CellsAppended, uint64(sp.NumCells()-1); got != want {
		t.Errorf("appended %d cells, want the %d after the local record", got, want)
	}
	for k, recs := range [][][]byte{ck, side} {
		if got, err := os.ReadFile(paths[k]); err != nil || !bytes.Equal(got, bytes.Join(recs, nil)) {
			t.Errorf("%s differs from the uninterrupted run's (%v)", filepath.Base(paths[k]), err)
		}
	}
}

// TestReplicaUnderOldManifestIsServed: manifests written before the
// manifest stopped framing the body carry checkpoint_lines and
// trajectory_lines. A replica stored under one is still read and served
// byte for byte: decoding ignores the two fields.
func TestReplicaUnderOldManifestIsServed(t *testing.T) {
	leaderMgr, _, _, leaderSrv, _ := newLifecycleRig(t, Config{})
	_, _, followerSrv, dir := newReplicaRig(t, Config{})

	sp := Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2, Trajectories: true}
	job := runDoneJob(t, leaderMgr, sp)
	body, err := NewReplicator(ReplicatorOptions{Store: leaderMgr.store}).wholeBody(job)
	if err != nil {
		t.Fatal(err)
	}
	if code := postReplica(t, followerSrv.URL, job.ID, string(body)); code != http.StatusOK {
		t.Fatalf("replica push = %d", code)
	}
	path := filepath.Join(dir, "replicas", job.ID, "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var old map[string]any
	if err := json.Unmarshal(data, &old); err != nil {
		t.Fatal(err)
	}
	old["checkpoint_lines"], old["trajectory_lines"] = 2, 2
	if data, err = json.Marshal(old); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, read := range []string{"", "/results", "/trajectories"} {
		_, want := getRaw(t, leaderSrv.URL+"/sweeps/"+job.ID+read, nil)
		resp, got := getRaw(t, followerSrv.URL+"/sweeps/"+job.ID+read, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s under an old manifest = %d", read, resp.StatusCode)
		}
		if read != "" && string(got) != string(want) {
			t.Fatalf("%s: follower serves %d bytes, leader %d", read, len(got), len(want))
		}
	}
}
