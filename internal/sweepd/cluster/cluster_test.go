package cluster

// State-machine tests for the membership registry, driven through an
// injectable clock, jitter source, and transport (the gcOnce pattern
// from the manager's TTL tests): every transition — alive → suspect →
// down → backed off → readmitted — is pinned without a sleep or a
// socket.

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sweepd"
)

// fakeTransport scripts peer reachability, identities, loads, and
// gossip payloads (member lists plus optional leases/tombstones).
type fakeTransport struct {
	mu      sync.Mutex
	up      map[string]bool
	ids     map[string]string
	loads   map[string]*sweepd.LoadInfo
	lists   map[string][]string
	leases  map[string][]sweepd.JobLease
	tombs   map[string][]sweepd.Tombstone
	hellos  []string
	probed  map[string]int
	helloOK bool
}

func newFakeTransport(up ...string) *fakeTransport {
	t := &fakeTransport{
		up:      make(map[string]bool),
		ids:     make(map[string]string),
		loads:   make(map[string]*sweepd.LoadInfo),
		lists:   make(map[string][]string),
		leases:  make(map[string][]sweepd.JobLease),
		tombs:   make(map[string][]sweepd.Tombstone),
		probed:  make(map[string]int),
		helloOK: true,
	}
	for _, u := range up {
		t.up[u] = true
	}
	return t
}

func (t *fakeTransport) setUp(url string, up bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.up[url] = up
}

func (t *fakeTransport) setID(url, id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids[url] = id
}

func (t *fakeTransport) setLoad(url string, l sweepd.LoadInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.loads[url] = &l
}

// payload assembles url's gossip payload the way the real endpoint
// would. Caller holds t.mu.
func (t *fakeTransport) payload(url string) *sweepd.MembersResponse {
	mr := &sweepd.MembersResponse{
		InstanceID: t.ids[url],
		Load:       t.loads[url],
		Leases:     t.leases[url],
		Tombstones: t.tombs[url],
	}
	for _, u := range t.lists[url] {
		mr.Members = append(mr.Members, sweepd.MemberInfo{URL: u, State: "alive"})
	}
	return mr
}

func (t *fakeTransport) hello(url, self string) (*sweepd.MembersResponse, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hellos = append(t.hellos, fmt.Sprintf("%s<-%s", url, self))
	if !t.helloOK {
		return nil, errors.New("hello refused")
	}
	// Like the real endpoint, a hello answers with the gossip payload.
	return t.payload(url), nil
}

// members is the pull, and so the probe: an unreachable URL fails it.
func (t *fakeTransport) members(url string) (*sweepd.MembersResponse, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.probed[url]++
	if !t.up[url] {
		return nil, errors.New("unreachable")
	}
	return t.payload(url), nil
}

func (t *fakeTransport) probeCount(url string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.probed[url]
}

// testRegistry builds a registry with a controllable clock (start time
// t0), full jitter (randf = 1 so backoff delays are exact), and the
// given fake transport.
func testRegistry(opts Options, tr *fakeTransport) (*Registry, *time.Time) {
	r := New(opts)
	t0 := time.Date(2026, 7, 28, 0, 0, 0, 0, time.UTC)
	now := &t0
	r.now = func() time.Time { return *now }
	r.randf = func() float64 { return 1 }
	r.probe = tr
	return r, now
}

func stateOf(t *testing.T, r *Registry, url string) State {
	t.Helper()
	for _, m := range r.Members() {
		if m.URL == url && !m.Self {
			return State(m.State)
		}
	}
	t.Fatalf("member %s not found", url)
	return ""
}

const peerA = "http://a:1"

// failUntilDown runs the downAfter tick cycles, all at the current fake
// instant, that take an unreachable alive member down.
func failUntilDown(r *Registry) {
	for range downAfter {
		r.probeOnce()
	}
}

// TestSeedLifecycle walks one seed through the full state machine:
// optimistically alive, suspect on first failure, down after three
// consecutive failures, probe attempts spaced by a doubling capped
// backoff, and readmission the moment a probe succeeds.
func TestSeedLifecycle(t *testing.T) {
	tr := newFakeTransport(peerA)
	r, now := testRegistry(Options{
		Seeds:         []string{peerA},
		ProbeInterval: 10 * time.Second,
		BackoffMax:    40 * time.Second,
	}, tr)

	// Seeds are alive before any probe — a job submitted at boot leases
	// to them exactly as the static list did.
	if got := r.AlivePeers(); len(got) != 1 || got[0] != peerA {
		t.Fatalf("AlivePeers before first probe = %v", got)
	}

	r.probeOnce()
	if st := stateOf(t, r, peerA); st != StateAlive {
		t.Fatalf("after successful probe: state = %s", st)
	}

	// Fail 1: alive → suspect. Fail 2: still suspect. Fail 3: down.
	tr.setUp(peerA, false)
	for i, want := range []State{StateSuspect, StateSuspect, StateDown} {
		*now = now.Add(10 * time.Second)
		r.probeOnce()
		if st := stateOf(t, r, peerA); st != want {
			t.Fatalf("after failure %d: state = %s, want %s", i+1, st, want)
		}
		if got := r.AlivePeers(); len(got) != 0 {
			t.Fatalf("after failure %d: AlivePeers = %v, want none", i+1, got)
		}
	}
	st := r.ClusterStats()
	if st.Probes != 4 || st.ProbeFailures != 3 {
		t.Fatalf("stats after 3 failures: %+v", st)
	}
	if st.Backoffs != 1 {
		t.Fatalf("entering down should raise the backoff once: %+v", st)
	}

	// Backoff doubles 10s → 20s → 40s and caps there (randf=1 makes the
	// jittered delay exactly the backoff). A cycle before the deadline
	// must not dial the peer at all.
	probes := tr.probeCount(peerA)
	*now = now.Add(5 * time.Second)
	r.probeOnce()
	if tr.probeCount(peerA) != probes {
		t.Fatal("down peer probed before its backoff expired")
	}
	for _, wantBackoff := range []time.Duration{20 * time.Second, 40 * time.Second, 40 * time.Second} {
		*now = now.Add(41 * time.Second) // past any current backoff
		r.probeOnce()
		r.mu.Lock()
		got := r.members[peerA].backoff
		r.mu.Unlock()
		if got != wantBackoff {
			t.Fatalf("backoff = %v, want %v", got, wantBackoff)
		}
	}
	// Three actual raises (10s on entering down, →20s, →40s); the probe
	// at the 40s cap must NOT count — a parked corpse is not flapping.
	if got := r.ClusterStats().Backoffs; got != 3 {
		t.Fatalf("backoffs = %d, want 3 (raises only, not probes at the cap)", got)
	}

	// Readmission: the peer comes back, the next due probe revives it.
	tr.setUp(peerA, true)
	*now = now.Add(41 * time.Second)
	r.probeOnce()
	if st := stateOf(t, r, peerA); st != StateAlive {
		t.Fatalf("after recovery probe: state = %s", st)
	}
	if got := r.AlivePeers(); len(got) != 1 {
		t.Fatalf("readmitted peer missing from AlivePeers: %v", got)
	}
	cs := r.ClusterStats()
	if cs.Readmissions != 1 {
		t.Fatalf("readmissions = %d, want 1", cs.Readmissions)
	}
	r.mu.Lock()
	m := r.members[peerA]
	if m.backoff != 0 || m.fails != 0 {
		r.mu.Unlock()
		t.Fatalf("readmission must reset backoff/fails: %+v", m)
	}
	r.mu.Unlock()
}

// TestFlappingPeerBackoffAndReadmission is the acceptance-criterion
// scenario: a peer killed then restarted is backed off while dead and
// readmitted by the probe loop once it returns.
func TestFlappingPeerBackoffAndReadmission(t *testing.T) {
	tr := newFakeTransport(peerA)
	r, now := testRegistry(Options{
		Seeds:         []string{peerA},
		ProbeInterval: time.Second,
		BackoffMax:    8 * time.Second,
	}, tr)

	flaps := 0
	for cycle := 0; cycle < 3; cycle++ {
		// Kill: three failed probes take it down.
		tr.setUp(peerA, false)
		for stateOf(t, r, peerA) != StateDown {
			*now = now.Add(9 * time.Second)
			r.probeOnce()
		}
		if len(r.AlivePeers()) != 0 {
			t.Fatalf("cycle %d: dead peer still leased to", cycle)
		}
		// Restart: the next due probe readmits it.
		tr.setUp(peerA, true)
		*now = now.Add(9 * time.Second)
		r.probeOnce()
		if st := stateOf(t, r, peerA); st != StateAlive {
			t.Fatalf("cycle %d: state after restart = %s", cycle, st)
		}
		flaps++
		if got := r.ClusterStats().Readmissions; got != uint64(flaps) {
			t.Fatalf("cycle %d: readmissions = %d, want %d", cycle, got, flaps)
		}
	}
}

// TestMemberDownIsAWarnWithItsURL: the transition an operator filters for
// when a member dies is one WARN record keyed by the member's URL.
func TestMemberDownIsAWarnWithItsURL(t *testing.T) {
	logs := captureLog(t)
	tr := newFakeTransport(peerA)
	r, now := testRegistry(Options{Seeds: []string{peerA}, ProbeInterval: time.Second}, tr)
	r.probeOnce()
	tr.setUp(peerA, false)
	for stateOf(t, r, peerA) != StateDown {
		*now = now.Add(time.Second)
		r.probeOnce()
	}
	var downs []string
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "cluster: member down") {
			downs = append(downs, line)
		}
	}
	if len(downs) != 1 || !strings.Contains(downs[0], "WARN") || !strings.Contains(downs[0], "member="+peerA) {
		t.Fatalf("member-down records = %q, want one WARN with member=%s", downs, peerA)
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

// TestJitterBounds pins the backoff jitter window: with randf spanning
// its range, the scheduled delay stays within [backoff/2, backoff].
func TestJitterBounds(t *testing.T) {
	for _, frac := range []float64{0, 0.5, 1} {
		tr := newFakeTransport()
		r, now := testRegistry(Options{
			Seeds:         []string{peerA},
			ProbeInterval: 10 * time.Second,
			BackoffMax:    time.Hour,
		}, tr)
		r.randf = func() float64 { return frac }
		failUntilDown(r) // backoff = interval
		r.mu.Lock()
		delay := r.members[peerA].next.Sub(*now)
		r.mu.Unlock()
		lo, hi := 5*time.Second, 10*time.Second
		if delay < lo || delay > hi {
			t.Fatalf("randf=%v: delay %v outside [%v, %v]", frac, delay, lo, hi)
		}
	}
}

// TestHelloRegistersAlive: an announced peer is alive immediately (it
// just proved reachability), a re-hello of a down peer counts as a
// readmission, and self/garbage are ignored.
func TestHelloRegistersAlive(t *testing.T) {
	tr := newFakeTransport()
	r, now := testRegistry(Options{
		Self:          "http://self:1",
		ProbeInterval: 10 * time.Second,
	}, tr)

	r.Hello("http://b:2/")
	if got := r.AlivePeers(); len(got) != 1 || got[0] != "http://b:2" {
		t.Fatalf("AlivePeers after hello = %v", got)
	}

	// Unreachable until it re-announces: down, then hello revives it.
	*now = now.Add(10 * time.Second)
	failUntilDown(r)
	if st := stateOf(t, r, "http://b:2"); st != StateDown {
		t.Fatalf("state after failed probe = %s", st)
	}
	r.Hello("http://b:2")
	if st := stateOf(t, r, "http://b:2"); st != StateAlive {
		t.Fatalf("state after re-hello = %s", st)
	}
	if got := r.ClusterStats().Readmissions; got != 1 {
		t.Fatalf("readmissions = %d, want 1", got)
	}

	r.Hello("http://self:1") // self-hello must not self-register
	r.Hello("")
	if n := len(r.Members()); n != 2 { // self + b
		t.Fatalf("members = %d, want 2 (self + b)", n)
	}
}

// TestGossipLearnsNewMembers: a probe of an alive seed pulls its member
// list; unknown URLs join as suspect and are promoted by their own
// probe — never leased to on hearsay alone.
func TestGossipLearnsNewMembers(t *testing.T) {
	seed := "http://seed:1"
	newbie := "http://new:2"
	tr := newFakeTransport(seed, newbie)
	tr.lists[seed] = []string{seed, newbie + "/", "http://self:9"}
	r, now := testRegistry(Options{
		Self:          "http://self:9",
		Seeds:         []string{seed},
		ProbeInterval: 10 * time.Second,
	}, tr)

	r.probeOnce()
	if st := stateOf(t, r, newbie); st != StateSuspect {
		t.Fatalf("gossip-learned member state = %s, want suspect", st)
	}
	if got := r.AlivePeers(); len(got) != 1 || got[0] != seed {
		t.Fatalf("AlivePeers right after gossip = %v (hearsay must not be leased to)", got)
	}
	// The newbie is due immediately; the next cycle confirms it.
	r.probeOnce()
	if st := stateOf(t, r, newbie); st != StateAlive {
		t.Fatalf("state after verification probe = %s", st)
	}
	if got := r.AlivePeers(); len(got) != 2 {
		t.Fatalf("AlivePeers after verification = %v", got)
	}
	_ = now
}

// TestHelloAnnouncedOncePerEpoch: Self is announced to a peer on its
// first successful probe, not re-announced while it stays alive, and
// re-announced after it went down and came back (it lost its table).
func TestHelloAnnouncedOncePerEpoch(t *testing.T) {
	tr := newFakeTransport(peerA)
	r, now := testRegistry(Options{
		Self:          "http://self:1",
		Seeds:         []string{peerA},
		ProbeInterval: 10 * time.Second,
	}, tr)

	r.probeOnce()
	*now = now.Add(10 * time.Second)
	r.probeOnce()
	if n := len(tr.hellos); n != 1 {
		t.Fatalf("hellos after two alive probes = %d, want 1", n)
	}
	tr.setUp(peerA, false)
	*now = now.Add(10 * time.Second)
	failUntilDown(r) // helloed flag cleared
	tr.setUp(peerA, true)
	*now = now.Add(11 * time.Second)
	r.probeOnce() // readmitted; re-announced
	if n := len(tr.hellos); n != 2 {
		t.Fatalf("hellos after readmission = %d, want 2", n)
	}
}

// TestReportLeaseFailureDemotes: the shard pool's failure feedback
// demotes an alive peer to suspect, removing it from AlivePeers until a
// probe revives it.
func TestReportLeaseFailureDemotes(t *testing.T) {
	tr := newFakeTransport(peerA)
	r, _ := testRegistry(Options{
		Seeds:         []string{peerA},
		ProbeInterval: 10 * time.Second,
	}, tr)

	r.ReportLeaseFailure(peerA + "/")
	if st := stateOf(t, r, peerA); st != StateSuspect {
		t.Fatalf("state after lease failure = %s", st)
	}
	if got := r.AlivePeers(); len(got) != 0 {
		t.Fatalf("demoted peer still in AlivePeers: %v", got)
	}
	// The peer is due immediately; a successful probe readmits it.
	r.probeOnce()
	if st := stateOf(t, r, peerA); st != StateAlive {
		t.Fatalf("state after revival probe = %s", st)
	}
	// Feedback about unknown peers is ignored, not registered.
	r.ReportLeaseFailure("http://stranger:1")
	if n := len(r.Members()); n != 1 {
		t.Fatalf("members after stranger feedback = %d, want 1", n)
	}
}

// TestAliveProbedEveryCycle pins the probing cadence: alive and suspect
// members are dialed on every cycle regardless of when the previous
// cycle stamped them, so wall-clock jitter between ticks can never
// silently halve the effective probe rate (and with it, failure
// detection and gossip speed).
func TestAliveProbedEveryCycle(t *testing.T) {
	tr := newFakeTransport(peerA)
	r, _ := testRegistry(Options{
		Seeds:         []string{peerA},
		ProbeInterval: 10 * time.Second,
	}, tr)
	r.probeOnce()
	r.probeOnce() // same fake instant: an alive member is still due
	if got := tr.probeCount(peerA); got != 2 {
		t.Fatalf("alive member probed %d times over 2 cycles, want 2", got)
	}
	tr.setUp(peerA, false)
	r.probeOnce() // suspect now
	r.probeOnce() // suspect members are due every cycle too
	if got := tr.probeCount(peerA); got != 4 {
		t.Fatalf("suspect member probed %d times over 4 cycles, want 4", got)
	}
}

// TestHelloResponseMergedAsGossip: a successful hello's response body is
// the receiver's member table and must be merged, so a joiner learns the
// cluster in its very first announcement round-trip.
func TestHelloResponseMergedAsGossip(t *testing.T) {
	seed := "http://seed:1"
	other := "http://other:2"
	tr := newFakeTransport(seed)
	tr.lists[seed] = []string{seed, other}
	r, _ := testRegistry(Options{
		Self:          "http://self:9",
		Seeds:         []string{seed},
		ProbeInterval: 10 * time.Second,
	}, tr)
	r.probeOnce() // probe + hello; the hello response carries the table
	if st := stateOf(t, r, other); st != StateSuspect {
		t.Fatalf("member from hello response: state = %s, want suspect", st)
	}
}

// TestInvalidURLsRejected: the admission rule peerHello enforces applies
// to seeds and gossip too — a malformed URL neither enters the table nor
// spreads cluster-wide.
func TestInvalidURLsRejected(t *testing.T) {
	seed := "http://seed:1"
	tr := newFakeTransport(seed)
	tr.lists[seed] = []string{seed, "htp://typo:2", "not a url", "http://good:3"}
	r, _ := testRegistry(Options{
		Seeds:         []string{seed, "htp://badseed:9"},
		ProbeInterval: 10 * time.Second,
	}, tr)
	for _, m := range r.Members() {
		if m.URL == "htp://badseed:9" {
			t.Fatal("invalid seed URL entered the member table")
		}
	}
	r.probeOnce()
	var urls []string
	for _, m := range r.Members() {
		urls = append(urls, m.URL)
	}
	for _, bad := range []string{"htp://typo:2", "not a url"} {
		for _, u := range urls {
			if u == bad {
				t.Fatalf("invalid gossiped URL %q entered the member table", bad)
			}
		}
	}
	if st := stateOf(t, r, "http://good:3"); st != StateSuspect {
		t.Fatalf("valid gossiped URL missing (members: %v)", urls)
	}
}

// TestStaleProbeResultDropped: a probe success collected while the
// member's state moved underneath it (here: a lease failure demoting
// the peer mid-cycle) must be discarded, not resurrect the peer.
func TestStaleProbeResultDropped(t *testing.T) {
	demote := make(chan struct{})
	proceed := make(chan struct{})
	tr := newFakeTransport(peerA)
	r, _ := testRegistry(Options{
		Seeds:         []string{peerA},
		ProbeInterval: 10 * time.Second,
	}, tr)
	// Wrap the transport: the probe dials (and succeeds) first, then the
	// demotion lands before the cycle applies its result.
	r.probe = probeHook{transport: tr, after: func() {
		close(demote)
		<-proceed
	}}
	go func() {
		<-demote
		r.ReportLeaseFailure(peerA)
		close(proceed)
	}()
	r.probeOnce()
	if st := stateOf(t, r, peerA); st != StateSuspect {
		t.Fatalf("stale probe success overwrote the demotion: state = %s", st)
	}
}

// probeHook runs a callback after each probe dial (the member pull),
// before the cycle can apply the result.
type probeHook struct {
	transport
	after func()
}

func (p probeHook) members(url string) (*sweepd.MembersResponse, error) {
	mr, err := p.transport.members(url)
	p.after()
	return mr, err
}

// TestSelfLearnedByGossipIsDropped: a non-advertising daemon's own URL
// can travel back to it via gossip (its joiners list their seed). The
// probe answers with the registry's own instance ID, so the member must
// be dropped and the URL blacklisted — a daemon never leases sweep work
// to itself over loopback HTTP.
func TestSelfLearnedByGossipIsDropped(t *testing.T) {
	seed := "http://seed:1"
	myURL := "http://me:9" // this daemon's unadvertised URL
	tr := newFakeTransport(seed, myURL)
	tr.lists[seed] = []string{seed, myURL}
	r, _ := testRegistry(Options{
		Seeds:         []string{seed},
		ProbeInterval: 10 * time.Second,
	}, tr)
	tr.setID(myURL, r.instanceID) // probing myURL reaches ourselves

	r.probeOnce() // pulls gossip: myURL joins as suspect
	if st := stateOf(t, r, myURL); st != StateSuspect {
		t.Fatalf("gossiped self state = %s, want suspect pending verification", st)
	}
	r.probeOnce() // verification probe sees our own instance ID
	for _, m := range r.Members() {
		if m.URL == myURL {
			t.Fatalf("own URL still a member after identity check: %+v", m)
		}
	}
	if got := r.AlivePeers(); len(got) != 1 || got[0] != seed {
		t.Fatalf("AlivePeers = %v, want just the seed", got)
	}
	// Blacklisted for good: gossip and hellos cannot re-register it.
	r.probeOnce()
	r.Hello(myURL)
	for _, m := range r.Members() {
		if m.URL == myURL {
			t.Fatal("own URL re-registered after blacklisting")
		}
	}
}

// TestRestartedPeerIsReannounced: a peer that restarts fast enough to
// never miss a probe still changes its instance ID; the registry must
// notice and re-announce Self, or the restarted peer (member table
// wiped) would never learn us again.
func TestRestartedPeerIsReannounced(t *testing.T) {
	tr := newFakeTransport(peerA)
	tr.setID(peerA, "epoch-1")
	r, now := testRegistry(Options{
		Self:          "http://self:1",
		Seeds:         []string{peerA},
		ProbeInterval: 10 * time.Second,
	}, tr)

	r.probeOnce() // confirm + announce
	if n := len(tr.hellos); n != 1 {
		t.Fatalf("hellos after first probe = %d, want 1", n)
	}
	tr.setID(peerA, "epoch-2") // restart between probes, no probe missed
	*now = now.Add(10 * time.Second)
	r.probeOnce() // detects the new epoch, clears helloed
	*now = now.Add(10 * time.Second)
	r.probeOnce() // re-announces
	if n := len(tr.hellos); n != 2 {
		t.Fatalf("hellos after peer restart = %d, want 2", n)
	}
}

// TestSuspectClearsHello: even one failed probe invalidates the
// standing announcement (the peer may be mid-restart), so recovery
// through suspect — short of down — still re-announces.
func TestSuspectClearsHello(t *testing.T) {
	tr := newFakeTransport(peerA)
	r, now := testRegistry(Options{
		Self:          "http://self:1",
		Seeds:         []string{peerA},
		ProbeInterval: 10 * time.Second,
	}, tr)

	r.probeOnce() // announce #1
	tr.setUp(peerA, false)
	*now = now.Add(10 * time.Second)
	r.probeOnce() // one failure: suspect, hello invalidated
	tr.setUp(peerA, true)
	*now = now.Add(10 * time.Second)
	r.probeOnce() // recovered without ever reaching down
	*now = now.Add(10 * time.Second)
	r.probeOnce() // re-announce lands here at the latest
	if n := len(tr.hellos); n != 2 {
		t.Fatalf("hellos after suspect dip = %d, want 2", n)
	}
}

// TestSeedNormalizationAndDedup: seeds are normalized, deduped, and
// self-filtered at construction.
func TestSeedNormalizationAndDedup(t *testing.T) {
	tr := newFakeTransport()
	r, _ := testRegistry(Options{
		Self:  "http://self:1",
		Seeds: []string{"http://a:1/", " http://a:1 ", "", "http://self:1/", "http://b:2"},
	}, tr)
	members := r.Members()
	var urls []string
	for _, m := range members {
		if !m.Self {
			urls = append(urls, m.URL)
		}
	}
	if len(urls) != 2 || urls[0] != "http://a:1" || urls[1] != "http://b:2" {
		t.Fatalf("seed members = %v", urls)
	}
}

// TestMembersSelfFirst pins the wire shape the joiner relies on: self
// leads the list and carries the Self marker.
func TestMembersSelfFirst(t *testing.T) {
	tr := newFakeTransport()
	r, _ := testRegistry(Options{Self: "http://self:1", Seeds: []string{peerA}}, tr)
	ms := r.Members()
	if len(ms) != 2 || !ms[0].Self || ms[0].URL != "http://self:1" {
		t.Fatalf("members = %+v", ms)
	}
	if ms[1].Self || ms[1].URL != peerA {
		t.Fatalf("peer row = %+v", ms[1])
	}
	var _ sweepd.Cluster = r // compile-time interface checks
}

// TestStartStopLifecycle exercises the real probe loop briefly: Start
// probes immediately, Close joins the loop.
func TestStartStopLifecycle(t *testing.T) {
	tr := newFakeTransport(peerA)
	r := New(Options{Seeds: []string{peerA}, ProbeInterval: 10 * time.Millisecond})
	r.probe = tr
	booted := make(chan struct{})
	var once sync.Once
	r.cycleDone = func(bool) { once.Do(func() { close(booted) }) }
	r.Start()
	r.Start() // double Start must be a no-op, not a second loop
	<-booted
	if tr.probeCount(peerA) == 0 {
		t.Fatal("the loop's first cycle never dialed the seed")
	}
	r.Close()
	r.Close() // double Close must be a no-op, not a panic
	select {
	case <-r.done:
	default:
		t.Fatal("probe loop survived Close")
	}
}

// TestProbeCachesLoadForPlacement: a probe's load snapshot is cached
// per member and surfaces through AliveLoads (placement candidates)
// and the Members gossip rows; members never load-sampled are excluded
// from AliveLoads rather than treated as idle, and the self row
// carries the live SelfLoad callback.
func TestProbeCachesLoadForPlacement(t *testing.T) {
	b := "http://b:2"
	tr := newFakeTransport(peerA, b)
	tr.setLoad(peerA, sweepd.LoadInfo{QueueDepth: 2, BusyWorkers: 1})
	r, _ := testRegistry(Options{
		Self:          "http://self:1",
		Seeds:         []string{peerA, b},
		ProbeInterval: 10 * time.Second,
		SelfLoad:      func() sweepd.LoadInfo { return sweepd.LoadInfo{QueueDepth: 7} },
	}, tr)
	r.probeOnce()
	loads := r.AliveLoads()
	if len(loads) != 1 || loads[0].URL != peerA || loads[0].Load.QueueDepth != 2 {
		t.Fatalf("AliveLoads = %+v, want only the load-sampled peer", loads)
	}
	for _, m := range r.Members() {
		switch {
		case m.Self:
			if m.Load == nil || m.Load.QueueDepth != 7 {
				t.Fatalf("self row load = %+v, want the live SelfLoad", m.Load)
			}
		case m.URL == peerA:
			if m.Load == nil || m.Load.QueueDepth != 2 {
				t.Fatalf("probed peer row load = %+v", m.Load)
			}
		case m.URL == b:
			if m.Load != nil {
				t.Fatalf("never-sampled peer advertises load %+v", m.Load)
			}
		}
	}
}

// TestUpdateLeaseGenerationGuard pins the split-brain rule: higher
// generation always wins, equal generation only refreshes the same
// owner or tie-breaks to the smaller URL, everything else is stale.
func TestUpdateLeaseGenerationGuard(t *testing.T) {
	tr := newFakeTransport()
	r, now := testRegistry(Options{ProbeInterval: 10 * time.Second}, tr)
	put := func(id, owner string, gen uint64) bool {
		return r.UpdateLease(sweepd.JobLease{JobID: id, Owner: owner, Generation: gen})
	}
	if !put("j1", "http://b:2", 1) {
		t.Fatal("fresh lease rejected")
	}
	if !put("j1", "http://b:2", 1) {
		t.Fatal("same-owner refresh rejected")
	}
	if put("j1", "http://c:3", 1) {
		t.Fatal("equal generation, larger owner accepted")
	}
	if !put("j1", "http://a:1", 1) {
		t.Fatal("equal-generation tie-break to the smaller owner rejected")
	}
	if put("j1", "http://z:9", 1) {
		t.Fatal("tie-break loser accepted")
	}
	if !put("j1", "http://z:9", 2) {
		t.Fatal("higher generation rejected")
	}
	if put("j1", "http://a:1", 1) {
		t.Fatal("stale generation accepted")
	}
	if put("", "http://a:1", 1) || put("j2", "", 1) || put("j2", "http://a:1", 0) {
		t.Fatal("invalid lease accepted")
	}
	ls := r.Leases()
	if len(ls) != 1 || ls[0].Generation != 2 || !ls[0].Updated.Equal(*now) {
		t.Fatalf("lease table = %+v, want one generation-2 lease stamped with local time", ls)
	}
	r.DropLease("j1", 1)
	if len(r.Leases()) != 1 {
		t.Fatal("stale-generation drop removed a newer lease")
	}
	r.DropLease("j1", 2)
	if len(r.Leases()) != 0 {
		t.Fatal("owner's drop did not remove the lease")
	}
}

// TestGossipSpreadsAndWithdrawsLeases: a gossip pull merges the peer's
// leases; the peer is authoritative for its own — a lease it stops
// listing is withdrawn here too — but never for third parties'.
func TestGossipSpreadsAndWithdrawsLeases(t *testing.T) {
	seed := "http://seed:1"
	third := "http://c:3"
	tr := newFakeTransport(seed)
	tr.lists[seed] = []string{seed}
	tr.leases[seed] = []sweepd.JobLease{
		{JobID: "j-own", Owner: seed, Generation: 1},
		{JobID: "j-third", Owner: third, Generation: 1},
	}
	r, now := testRegistry(Options{
		Self:          "http://self:9",
		Seeds:         []string{seed},
		ProbeInterval: 10 * time.Second,
	}, tr)
	r.probeOnce()
	if got := len(r.Leases()); got != 2 {
		t.Fatalf("leases after gossip pull = %d, want 2", got)
	}
	tr.mu.Lock()
	tr.leases[seed] = nil // the seed's job finished
	tr.mu.Unlock()
	*now = now.Add(10 * time.Second)
	r.probeOnce()
	ls := r.Leases()
	if len(ls) != 1 || ls[0].JobID != "j-third" {
		t.Fatalf("leases after withdrawal = %+v, want only the third party's", ls)
	}
}

// TestSelfOwnedLeaseOutlivesProbeCycles: the registry has no lease clock
// of its own. A lease this daemon owns stays through any number of probe
// cycles without a heartbeat — its scheduler refreshes it at its own
// cadence — and leaves when the scheduler drops it.
func TestSelfOwnedLeaseOutlivesProbeCycles(t *testing.T) {
	self := "http://self:9"
	tr := newFakeTransport(peerA)
	r, now := testRegistry(Options{
		Self:          self,
		Seeds:         []string{peerA},
		ProbeInterval: 100 * time.Millisecond,
	}, tr)
	r.UpdateLease(sweepd.JobLease{JobID: "j", Owner: self, Generation: 1})
	for range 1000 {
		*now = now.Add(100 * time.Millisecond)
		r.probeOnce()
	}
	if ls := r.Leases(); len(ls) != 1 || ls[0].JobID != "j" {
		t.Fatalf("self-owned lease after 1000 cycles without a heartbeat: %+v", ls)
	}
	r.DropLease("j", 1)
	if ls := r.Leases(); len(ls) != 0 {
		t.Fatalf("leases after DropLease = %+v, want none", ls)
	}
}

// TestGossipEchoCannotRefreshSelfOwnedLease: our own leases are
// heartbeat firsthand by the scheduler. A peer echoing one back neither
// refreshes it nor, once the scheduler dropped it, brings it back.
func TestGossipEchoCannotRefreshSelfOwnedLease(t *testing.T) {
	seed := "http://seed:1"
	self := "http://self:9"
	tr := newFakeTransport(seed)
	tr.lists[seed] = []string{seed}
	tr.leases[seed] = []sweepd.JobLease{{JobID: "j", Owner: self, Generation: 1}}
	r, now := testRegistry(Options{
		Self:          self,
		Seeds:         []string{seed},
		ProbeInterval: 10 * time.Second,
	}, tr)
	r.UpdateLease(sweepd.JobLease{JobID: "j", Owner: self, Generation: 1})
	t0 := *now
	*now = now.Add(10 * time.Second)
	r.probeOnce() // pulls the echo
	if ls := r.Leases(); len(ls) != 1 || !ls[0].Updated.Equal(t0) {
		t.Fatalf("echo refreshed the self-owned lease: %+v, want Updated %v", ls, t0)
	}
	r.DropLease("j", 1)
	*now = now.Add(10 * time.Second)
	r.probeOnce() // the seed still echoes it
	if ls := r.Leases(); len(ls) != 0 {
		t.Fatalf("echo brought back a dropped self-owned lease: %+v", ls)
	}
}

// TestLeaseExpiryOnlyForHealthyOwners: a lease whose owner is down is
// adoption fuel, so no number of cycles without a refresh removes it.
func TestLeaseExpiryOnlyForHealthyOwners(t *testing.T) {
	tr := newFakeTransport() // peerA never reachable
	r, now := testRegistry(Options{
		Seeds:         []string{peerA},
		ProbeInterval: 10 * time.Second,
	}, tr)
	r.UpdateLease(sweepd.JobLease{JobID: "j", Owner: peerA, Generation: 1})
	failUntilDown(r)
	if st := stateOf(t, r, peerA); st != StateDown {
		t.Fatalf("state = %s, want down", st)
	}
	for range 10 {
		*now = now.Add(10 * time.Minute)
		r.probeOnce()
	}
	if ls := r.Leases(); len(ls) != 1 || ls[0].JobID != "j" {
		t.Fatalf("down-owner lease was dropped (adoption starved): %+v", ls)
	}
}

// TestTombstoneLifecycle walks a member through decommission: down
// past TombstoneAfter deletes it and raises a gossiped tombstone that
// blocks resurrection by hearsay; a hello (proved reachability) lifts
// it; an expired tombstone is purged and gossip may re-add the URL.
func TestTombstoneLifecycle(t *testing.T) {
	seed := "http://seed:1"
	tr := newFakeTransport(seed, peerA)
	tr.lists[seed] = []string{seed, peerA}
	r, now := testRegistry(Options{
		Self:           "http://self:9",
		Seeds:          []string{seed, peerA},
		ProbeInterval:  10 * time.Second,
		BackoffMax:     10 * time.Second,
		TombstoneAfter: 30 * time.Second,
	}, tr)
	r.probeOnce() // both alive
	tr.setUp(peerA, false)
	*now = now.Add(10 * time.Second)
	failUntilDown(r)
	if st := stateOf(t, r, peerA); st != StateDown {
		t.Fatalf("state = %s, want down", st)
	}
	*now = now.Add(30 * time.Second)
	r.probeOnce() // down past TombstoneAfter: decommissioned
	for _, m := range r.Members() {
		if m.URL == peerA {
			t.Fatal("tombstoned member still in the table")
		}
	}
	ts := r.Tombstones()
	if len(ts) != 1 || ts[0].URL != peerA {
		t.Fatalf("tombstones = %+v", ts)
	}
	if got := r.ClusterStats().Tombstoned; got != 1 {
		t.Fatalf("tombstoned counter = %d, want 1", got)
	}

	// The seed still lists peerA; gossip alone must not resurrect it.
	*now = now.Add(10 * time.Second)
	r.probeOnce()
	for _, m := range r.Members() {
		if m.URL == peerA {
			t.Fatal("gossip resurrected a tombstoned member")
		}
	}

	// A hello is proved reachability: tombstone lifted, member alive.
	r.Hello(peerA)
	if st := stateOf(t, r, peerA); st != StateAlive {
		t.Fatalf("state after hello = %s, want alive", st)
	}
	if len(r.Tombstones()) != 0 {
		t.Fatal("hello did not lift the tombstone")
	}

	// Decommission again; this time let the tombstone expire unlifted.
	*now = now.Add(10 * time.Second)
	failUntilDown(r) // still unreachable: down again
	*now = now.Add(30 * time.Second)
	r.probeOnce() // tombstoned again
	if len(r.Tombstones()) != 1 {
		t.Fatalf("tombstones after second decommission = %+v", r.Tombstones())
	}
	*now = now.Add(31 * time.Second)
	r.probeOnce() // past Until: purged
	if len(r.Tombstones()) != 0 {
		t.Fatal("expired tombstone not purged")
	}
	*now = now.Add(10 * time.Second)
	r.probeOnce() // gossip may now re-admit the URL (as suspect)
	found := false
	for _, m := range r.Members() {
		if m.URL == peerA {
			found = true
		}
	}
	if !found {
		t.Fatal("gossip could not re-add the member after tombstone expiry")
	}
}

// TestGossipedTombstoneDecommissions: a tombstone learned via gossip
// removes a member we cannot vouch for firsthand — but firsthand
// liveness (the member answered its own probe) beats the hearsay.
func TestGossipedTombstoneDecommissions(t *testing.T) {
	seed := "http://seed:1"
	b := "http://b:2"
	t0 := time.Date(2026, 7, 28, 0, 0, 0, 0, time.UTC)
	tr := newFakeTransport(seed, b)
	tr.lists[seed] = []string{seed}
	tr.tombs[seed] = []sweepd.Tombstone{{URL: b, Until: t0.Add(time.Hour)}}
	r, now := testRegistry(Options{
		Seeds:         []string{seed, b},
		ProbeInterval: 10 * time.Second,
	}, tr)
	r.probeOnce()
	if st := stateOf(t, r, b); st != StateAlive {
		t.Fatalf("firsthand-alive member state = %s; a gossiped tombstone must not kill it", st)
	}
	if len(r.Tombstones()) != 0 {
		t.Fatalf("tombstone adopted against a firsthand-alive member: %+v", r.Tombstones())
	}

	tr.setUp(b, false)
	*now = now.Add(10 * time.Second)
	r.probeOnce() // b suspect: no longer vouched for firsthand
	*now = now.Add(10 * time.Second)
	r.probeOnce() // next gossip pull at the latest: tombstone adopted, member deleted
	for _, m := range r.Members() {
		if m.URL == b {
			t.Fatalf("down member survived a gossiped tombstone: %+v", m)
		}
	}
	ts := r.Tombstones()
	if len(ts) != 1 || ts[0].URL != b {
		t.Fatalf("tombstones = %+v", ts)
	}
}

// TestGossipHearsayCannotRefreshThirdPartyLease: survivors echoing a
// dead leader's lease at each other must not keep re-stamping it fresh
// — that would starve adoption forever. Hearsay may introduce a lease
// (discovery) but only the owner's own listing refreshes its staleness.
func TestGossipHearsayCannotRefreshThirdPartyLease(t *testing.T) {
	owner := "http://owner:1"
	echo := "http://echo:2"
	tr := newFakeTransport(echo)
	tr.lists[echo] = []string{echo}
	tr.leases[echo] = []sweepd.JobLease{{JobID: "j", Owner: owner, Generation: 1}}
	r, now := testRegistry(Options{
		Self:          "http://self:9",
		Seeds:         []string{echo, owner},
		ProbeInterval: 10 * time.Second,
	}, tr)
	r.probeOnce() // hearsay discovery: learn the lease from the echoer
	t0 := *now
	if ls := r.Leases(); len(ls) != 1 || !ls[0].Updated.Equal(t0) {
		t.Fatalf("leases after discovery = %+v", ls)
	}
	*now = now.Add(10 * time.Second)
	r.probeOnce() // the echoer still lists it; staleness must keep running
	if ls := r.Leases(); len(ls) != 1 || !ls[0].Updated.Equal(t0) {
		t.Fatalf("hearsay refreshed the lease: Updated = %v, want %v", ls[0].Updated, t0)
	}
	// The owner itself listing the lease is firsthand and does refresh.
	tr.setUp(owner, true)
	tr.mu.Lock()
	tr.lists[owner] = []string{owner}
	tr.leases[owner] = []sweepd.JobLease{{JobID: "j", Owner: owner, Generation: 1}}
	tr.mu.Unlock()
	*now = now.Add(10 * time.Second)
	r.probeOnce()
	if ls := r.Leases(); len(ls) != 1 || !ls[0].Updated.Equal(*now) {
		t.Fatalf("owner's own listing did not refresh the lease: %+v", ls)
	}
}

// TestCloseDoesNotWaitOnBlackHoledPeer: a probe cycle stuck on a member
// that accepts the request and never answers must not hold Close — it
// cancels the context every call of the production transport carries.
func TestCloseDoesNotWaitOnBlackHoledPeer(t *testing.T) {
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

	r := New(Options{Seeds: []string{srv.URL}, ProbeInterval: 5 * time.Second})
	r.Start() // the immediate first cycle probes the seed
	<-entered

	start := time.Now()
	r.Close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close waited %v on a peer that never answers", elapsed)
	}
}
