package cluster

// Convergence tests for the event-driven half of the probe loop: real
// Registry values wired to each other through an in-memory transport,
// with ProbeInterval an hour so that nothing but a wake can explain
// progress. No sockets, no sleeps: started registries are waited on
// through the loop's cycleDone hook, and the exact dial-count bounds are
// taken on registries whose loop the test plays by hand (settle), where
// every interleaving is the test's own.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/sweepd"
)

// probeOnce runs one tick cycle, the way the loop does at boot and on
// every ProbeInterval.
func (r *Registry) probeOnce() { r.cycle(false) }

// meshNet is an in-memory network of registries keyed by advertise URL.
type meshNet struct {
	mu    sync.Mutex
	regs  map[string]*Registry
	urls  []string          // creation order; settle's fixed schedule
	loads map[string]int    // what each member's SelfLoad reports
	cut   map[string]bool   // partitioned members: no call in or out
	dials map[[3]string]int // {from, to, call} → calls dialed
	clock time.Time         // shared fake clock of hand-played nets
	// changed has one slot: a finished cycle leaves a token, so a waiter
	// that checks its condition and then blocks cannot miss the cycle
	// that made it true.
	changed chan struct{}
}

func newMeshNet() *meshNet {
	return &meshNet{
		regs:    make(map[string]*Registry),
		loads:   make(map[string]int),
		cut:     make(map[string]bool),
		dials:   make(map[[3]string]int),
		clock:   time.Date(2026, 7, 28, 0, 0, 0, 0, time.UTC),
		changed: make(chan struct{}, 1),
	}
}

func meshURL(i int) string { return fmt.Sprintf("http://m%d:1", i) }

// add builds member i (seeded on seeds) without starting its loop. Its
// load is i+1, so a load that reached a peer's table names its source.
func (n *meshNet) add(i int, opts Options, seeds ...string) *Registry {
	url := meshURL(i)
	opts.Self, opts.Seeds = url, seeds
	opts.SelfLoad = func() sweepd.LoadInfo {
		n.mu.Lock()
		defer n.mu.Unlock()
		return sweepd.LoadInfo{QueueDepth: n.loads[url]}
	}
	r := New(opts)
	r.randf = func() float64 { return 1 }
	r.probe = meshTransport{net: n, from: url}
	r.cycleDone = func(bool) {
		select {
		case n.changed <- struct{}{}:
		default:
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.regs[url] == nil { // not a restart in place
		n.urls = append(n.urls, url)
	}
	n.regs[url] = r
	n.loads[url] = i + 1
	return r
}

func (n *meshNet) advance(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.clock = n.clock.Add(d)
}

func (n *meshNet) setCut(url string, cut bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[url] = cut
}

func (n *meshNet) setLoad(url string, depth int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.loads[url] = depth
}

// The two calls a member dials, as dial-count keys.
const (
	pull  = "GET /peer/members"
	hello = "POST /peer/hello"
)

// takeDials returns every call dialed since the last take, per
// {from, to, call}, and starts a new count.
func (n *meshNet) takeDials() map[[3]string]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.dials
	n.dials = make(map[[3]string]int)
	return out
}

// peer counts and resolves a call from → to; nil when either end is
// partitioned or nobody listens at to.
func (n *meshNet) peer(from, to, call string) *Registry {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dials[[3]string{from, to, call}]++
	if n.cut[from] || n.cut[to] {
		return nil
	}
	return n.regs[to]
}

// meshTransport is one member's view of the net: the two peer RPCs
// answered by the target Registry itself, the way its HTTP handlers do.
type meshTransport struct {
	net  *meshNet
	from string
}

var errUnreachable = errors.New("unreachable")

func (t meshTransport) members(url string) (*sweepd.MembersResponse, error) {
	p := t.net.peer(t.from, url, pull)
	if p == nil {
		return nil, errUnreachable
	}
	return gossipOf(p), nil
}

func (t meshTransport) hello(url, self string) (*sweepd.MembersResponse, error) {
	p := t.net.peer(t.from, url, hello)
	if p == nil {
		return nil, errUnreachable
	}
	p.Hello(self)
	return gossipOf(p), nil
}

func gossipOf(p *Registry) *sweepd.MembersResponse {
	l := p.opts.SelfLoad()
	return &sweepd.MembersResponse{
		InstanceID: p.instanceID,
		Load:       &l,
		Members:    p.Members(),
		Leases:     p.Leases(),
		Tombstones: p.Tombstones(),
	}
}

// waitFor blocks until cond holds, re-checking after every finished
// cycle anywhere in the net. The timeout only turns a hang into a
// failure; no passing run waits on it.
func (n *meshNet) waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	timeout := time.After(30 * time.Second)
	for !cond() {
		select {
		case <-n.changed:
		case <-timeout:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// settle plays every member's probe loop by hand — one woken cycle per
// pending wake, members in creation order — until no wake is pending
// anywhere, and returns the woken cycles each member ran.
func (n *meshNet) settle() map[string]int {
	ran := make(map[string]int)
	for progress := true; progress; {
		progress = false
		for _, u := range n.urls {
			r := n.regs[u]
			select {
			case <-r.wake:
				r.cycle(true)
				ran[u]++
				progress = true
			default:
			}
		}
	}
	return ran
}

// missing lists what keeps the net from being a full mesh: every
// member's AliveLoads must name every other un-cut member with the load
// that member reports now.
func (n *meshNet) missing() []string {
	n.mu.Lock()
	var live []string
	want := make(map[string]int)
	for _, u := range n.urls {
		if !n.cut[u] {
			live = append(live, u)
			want[u] = n.loads[u]
		}
	}
	n.mu.Unlock()
	var out []string
	for _, u := range live {
		got := make(map[string]int)
		for _, ml := range n.regs[u].AliveLoads() {
			got[ml.URL] = ml.Load.QueueDepth
		}
		for _, v := range live {
			if v == u {
				continue
			}
			if d, ok := got[v]; !ok {
				out = append(out, fmt.Sprintf("%s has no load for %s", u, v))
			} else if d != want[v] {
				out = append(out, fmt.Sprintf("%s ranks %s at depth %d, want %d", u, v, d, want[v]))
			}
		}
		if len(got) != len(live)-1 {
			out = append(out, fmt.Sprintf("%s lists %d alive loads, want %d", u, len(got), len(live)-1))
		}
	}
	return out
}

// TestMeshConvergesOnWakesAlone: N started registries, all but the seed
// booted in a seeded random order with no pause between them, reach a
// full mesh with ticks an hour apart — every step after each loop's
// boot cycle is a woken one.
func TestMeshConvergesOnWakesAlone(t *testing.T) {
	for _, size := range []int{3, 8} {
		t.Run(fmt.Sprintf("n=%d", size), func(t *testing.T) {
			net := newMeshNet()
			rng := rand.New(rand.NewPCG(uint64(size), 24))
			regs := []*Registry{net.add(0, Options{ProbeInterval: time.Hour})}
			for i := 1; i < size; i++ {
				regs = append(regs, net.add(i, Options{ProbeInterval: time.Hour}, meshURL(0)))
			}
			defer func() {
				for _, r := range regs {
					r.Close()
				}
			}()
			regs[0].Start()
			for _, j := range rng.Perm(size - 1) {
				regs[j+1].Start()
			}
			net.waitFor(t, "the full mesh", func() bool { return len(net.missing()) == 0 })

			// A member restarts in place (new process, same URL, empty
			// table) before anybody noticed it gone: it learns the mesh
			// back the same way.
			victim := 1 + rng.IntN(size-1)
			regs[victim].Close()
			regs[victim] = net.add(victim, Options{ProbeInterval: time.Hour}, meshURL(0))
			regs[victim].Start()
			net.waitFor(t, "the restarted member's mesh", func() bool { return len(net.missing()) == 0 })
		})
	}
}

// playedMesh builds a size-member net played by hand and joins the
// members one at a time through member 0: each join is the joiner's boot
// cycle, then settle.
func playedMesh(t *testing.T, size int, opts Options) *meshNet {
	t.Helper()
	net := newMeshNet()
	useNow(t, func() time.Time {
		net.mu.Lock()
		defer net.mu.Unlock()
		return net.clock
	})
	for i := 0; i < size; i++ {
		var seeds []string
		if i > 0 {
			seeds = []string{meshURL(0)}
		}
		net.add(i, opts, seeds...).probeOnce()
		net.settle()
	}
	if miss := net.missing(); len(miss) != 0 {
		t.Fatalf("%d members joined one by one are not a mesh: %v", size, miss)
	}
	return net
}

// TestMeshJoinDialsOnlyTheJoiner is the cost bound of a join: each
// existing member runs one woken cycle that pulls and greets the joiner
// once each and calls nobody else, the joiner does the same to each
// member, and the hello back from each member wakes nothing.
func TestMeshJoinDialsOnlyTheJoiner(t *testing.T) {
	for _, size := range []int{3, 8} {
		t.Run(fmt.Sprintf("n=%d", size), func(t *testing.T) {
			net := playedMesh(t, size, Options{ProbeInterval: time.Hour})
			net.takeDials()
			joiner := meshURL(size)
			net.add(size, Options{ProbeInterval: time.Hour}, meshURL(0)).probeOnce()
			ran := net.settle()
			if miss := net.missing(); len(miss) != 0 {
				t.Fatalf("after the join: %v", miss)
			}
			dials := net.takeDials()
			for k, d := range dials {
				if from, to := k[0], k[1]; from != joiner && to != joiner {
					t.Errorf("%s dialed %s %d times during a join of %s", from, to, d, joiner)
				} else if d != 1 {
					t.Errorf("%s sent %s to %s %d times during the join, want 1", from, k[2], to, d)
				}
			}
			if len(dials) != 4*size {
				t.Errorf("%d calls dialed during the join, want a pull and a hello between the joiner and each of %d members, both ways", len(dials), size)
			}
			for i := 0; i < size; i++ {
				if got := ran[meshURL(i)]; got != 1 {
					t.Errorf("%s ran %d woken cycles for one join, want 1", meshURL(i), got)
				}
			}
			// The joiner's boot cycle dialed the seed; one woken cycle
			// dialed everyone the seed's table named.
			if ran[joiner] != 1 {
				t.Errorf("joiner ran %d woken cycles, want 1", ran[joiner])
			}
		})
	}
}

// TestMeshTickIsOneCallPerPair is the steady-state cost of membership: a
// formed three-member mesh makes one call per ordered member pair per
// tick — the member pull, which is the health probe — and no hello, since
// each member greeted each other exactly once when their aliveness epoch
// began.
func TestMeshTickIsOneCallPerPair(t *testing.T) {
	const size, ticks = 3, 5
	net := playedMesh(t, size, Options{ProbeInterval: time.Hour})
	hellos := 0
	for k, d := range net.takeDials() {
		if k[2] != hello {
			continue
		}
		hellos++
		if d != 1 {
			t.Errorf("%s greeted %s %d times while the mesh formed, want 1", k[0], k[1], d)
		}
	}
	if hellos != size*(size-1) {
		t.Errorf("%d ordered pairs greeted while the mesh formed, want %d", hellos, size*(size-1))
	}

	for range ticks {
		net.advance(time.Hour)
		for _, u := range net.urls {
			net.regs[u].probeOnce()
		}
		if ran := net.settle(); len(ran) != 0 {
			t.Fatalf("a tick in a formed mesh woke %v", ran)
		}
	}
	dials := net.takeDials()
	for k, d := range dials {
		if k[2] != pull || d != ticks {
			t.Errorf("%s sent %s to %s %d times over %d ticks, want only the pull, once a tick", k[0], k[2], k[1], d, ticks)
		}
	}
	if len(dials) != size*(size-1) {
		t.Errorf("%d calls dialed over %d ticks, want the pull for each of %d ordered pairs", len(dials), ticks, size*(size-1))
	}
}

// TestMeshPartitionAndHeal is generate / disconnect / assert / reconnect
// on a played mesh: a partitioned member goes down after the others'
// next three ticks, a join meanwhile dials neither it (inside its
// backoff) nor any alive member (next ahead), and when the partition
// heals the member's re-hello revives it everywhere with one pull and one
// hello each — its load unknown in between, never the stale one.
func TestMeshPartitionAndHeal(t *testing.T) {
	const size = 5
	opts := Options{ProbeInterval: time.Hour}
	net := playedMesh(t, size, opts)
	lost := meshURL(2)
	// The lost member's own backoff runs out first (no jitter against the
	// survivors' full one), so the heal below is its tick and nobody
	// else's.
	net.regs[lost].randf = func() float64 { return 0 }

	net.setCut(lost, true)
	for range downAfter {
		net.advance(time.Hour)
		for _, u := range net.urls {
			net.regs[u].probeOnce() // the ticks: the survivors mark it down, it marks them
		}
		if ran := net.settle(); len(ran) != 0 {
			t.Fatalf("a tick with nobody new woke %v", ran)
		}
	}
	if miss := net.missing(); len(miss) != 0 {
		t.Fatalf("survivors are not a mesh: %v", miss)
	}
	for _, u := range net.urls {
		if u != lost && stateOf(t, net.regs[u], lost) != StateDown {
			t.Fatalf("%s did not mark the partitioned member down", u)
		}
	}

	// A join while it is down: woken cycles dial the joiner only.
	net.takeDials()
	joiner := meshURL(size)
	net.add(size, opts, meshURL(0)).probeOnce()
	net.settle()
	for k, d := range net.takeDials() {
		if k[0] != joiner && k[1] != joiner {
			t.Errorf("%s dialed %s %d times during a join of %s", k[0], k[1], d, joiner)
		}
	}
	if miss := net.missing(); len(miss) != 0 {
		t.Fatalf("after a join beside a down member: %v", miss)
	}
	// The joiner's one dial of the partitioned member failed; its own
	// ticks take it down, as everyone else's did.
	for range downAfter - 1 {
		net.regs[joiner].probeOnce()
	}
	if st := stateOf(t, net.regs[joiner], lost); st != StateDown {
		t.Fatalf("the joiner holds the partitioned member %s, want down", st)
	}
	net.takeDials()

	// Heal. The member comes back busier than it left; its next tick
	// finds everyone again and re-announces (a failed probe voided its
	// standing hello), which revives it in every table at once.
	net.setCut(lost, false)
	net.setLoad(lost, 99)
	net.advance(30 * time.Minute)
	net.regs[lost].probeOnce()
	for _, u := range net.urls {
		if u == lost || u == joiner {
			continue // it hears of the joiner by gossip and greets it in settle
		}
		if stateOf(t, net.regs[u], lost) != StateAlive {
			t.Fatalf("%s did not revive the healed member on its hello", u)
		}
		for _, ml := range net.regs[u].AliveLoads() {
			if ml.URL == lost {
				t.Fatalf("%s ranks the revived member by load %+v before any probe of it", u, ml.Load)
			}
		}
	}
	net.settle()
	if miss := net.missing(); len(miss) != 0 {
		t.Fatalf("after the heal: %v", miss)
	}
	revivers := make(map[string]bool)
	for k, d := range net.takeDials() {
		from, to := k[0], k[1]
		switch {
		case from == lost: // its own tick dials the whole table, as ticks do
		case to != lost:
			t.Errorf("%s dialed %s %d times while reviving %s", from, to, d, lost)
		case d != 1:
			t.Errorf("%s sent the revived member %s %d times, want 1", from, k[2], d)
		default:
			revivers[from] = true
		}
	}
	if len(revivers) != size {
		t.Errorf("%d members probed the revived one, want all %d", len(revivers), size)
	}
}

// TestWakeDialsOnlyDueMembers pins the woken cycle's member set against
// the tick's on one registry: an alive member whose next is ahead, a
// suspect one a lease failure demoted, and a down one inside its backoff
// are all left alone by a wake and all (but the backed-off one) dialed
// by a tick.
func TestWakeDialsOnlyDueMembers(t *testing.T) {
	const alive, damped, dead, fresh = "http://alive:1", "http://damped:1", "http://dead:1", "http://fresh:1"
	tr := newFakeTransport(alive, damped, fresh)
	r, now := testRegistry(t, Options{
		Seeds:         []string{alive, damped, dead},
		ProbeInterval: 10 * time.Second,
	}, tr)
	const boot = downAfter
	failUntilDown(r) // alive, damped: alive; dead: down, backoff 10s
	r.ReportLeaseFailure(damped)
	*now = now.Add(5 * time.Second)
	r.Hello(fresh)
	if len(r.wake) != 1 {
		t.Fatal("a hello from a new URL did not wake the loop")
	}
	<-r.wake
	r.cycle(true)
	for url, want := range map[string]int{alive: boot, damped: boot, dead: boot, fresh: 1} {
		if got := tr.probeCount(url); got != want {
			t.Errorf("after the woken cycle %s was probed %d times, want %d", url, got, want)
		}
	}
	if st := stateOf(t, r, damped); st != StateSuspect {
		t.Errorf("a wake re-probed the lease-failure damper away: state = %s", st)
	}
	// The same instant, a tick: today's rule, untouched.
	r.probeOnce()
	for url, want := range map[string]int{alive: boot + 1, damped: boot + 1, dead: boot, fresh: 2} {
		if got := tr.probeCount(url); got != want {
			t.Errorf("after the tick %s was probed %d times, want %d", url, got, want)
		}
	}
	// A wake once the backoff has run out takes the down member too.
	*now = now.Add(5 * time.Second)
	r.cycle(true)
	if got := tr.probeCount(dead); got != boot+1 {
		t.Errorf("down member past its backoff probed %d times, want %d", got, boot+1)
	}
	if got := tr.probeCount(alive); got != boot+1 {
		t.Errorf("alive member with next ahead probed %d times, want %d", got, boot+1)
	}
}

// TestWakeQuietBetweenKnownPeers: two registries that already know each
// other can exchange hellos all day without a woken cycle.
func TestWakeQuietBetweenKnownPeers(t *testing.T) {
	net := playedMesh(t, 2, Options{ProbeInterval: time.Hour})
	a, b := net.regs[meshURL(0)], net.regs[meshURL(1)]
	for i := 0; i < 3; i++ {
		a.Hello(meshURL(1))
		b.Hello(meshURL(0))
	}
	if ran := net.settle(); len(ran) != 0 {
		t.Fatalf("hellos between known peers ran woken cycles: %v", ran)
	}
}

// TestWakeIgnoresGossipItRejects: a gossiped URL that is invalid,
// tombstoned, already known or this daemon itself adds no member and so
// wakes nothing; a good one does both.
func TestWakeIgnoresGossipItRejects(t *testing.T) {
	const seed, buried = "http://seed:1", "http://buried:2"
	tr := newFakeTransport(seed)
	tr.lists[seed] = []string{seed}
	r, now := testRegistry(t, Options{
		Self:          "http://self:9",
		Seeds:         []string{seed},
		ProbeInterval: 10 * time.Second,
	}, tr)
	tr.tombs[seed] = []sweepd.Tombstone{{URL: buried, Until: now.Add(time.Hour)}}
	r.probeOnce() // adopts the tombstone
	tr.mu.Lock()
	tr.lists[seed] = []string{seed, "http://self:9", buried, "htp://typo:2", "not a url"}
	tr.mu.Unlock()
	r.probeOnce()
	if len(r.wake) != 0 {
		t.Fatal("gossip that added no member woke the loop")
	}
	if n := len(r.Members()); n != 2 {
		t.Fatalf("members = %d, want self + seed", n)
	}
	tr.mu.Lock()
	tr.lists[seed] = append(tr.lists[seed], "http://good:3")
	tr.mu.Unlock()
	r.probeOnce()
	if len(r.wake) != 1 {
		t.Fatal("a gossip-learned member did not wake the loop")
	}
}

// TestWakeRefillsRevivedMembersLoad: a down member's re-hello flips it
// alive with its load unknown — not the dead process's — and the woken
// probe, not the next tick, fills it in.
func TestWakeRefillsRevivedMembersLoad(t *testing.T) {
	const b = "http://b:2"
	tr := newFakeTransport(b)
	tr.setLoad(b, sweepd.LoadInfo{QueueDepth: 7})
	r, now := testRegistry(t, Options{
		Self:          "http://self:1",
		Seeds:         []string{b},
		ProbeInterval: 10 * time.Second,
	}, tr)
	r.probeOnce()
	if l := r.AliveLoads(); len(l) != 1 || l[0].Load.QueueDepth != 7 {
		t.Fatalf("AliveLoads after the first probe = %+v", l)
	}
	tr.setUp(b, false)
	*now = now.Add(10 * time.Second)
	failUntilDown(r)
	if st := stateOf(t, r, b); st != StateDown {
		t.Fatalf("state = %s, want down", st)
	}

	tr.setUp(b, true) // a new process behind the URL, idle
	tr.setLoad(b, sweepd.LoadInfo{})
	*now = now.Add(time.Second)
	r.Hello(b)
	if got := r.AlivePeers(); len(got) != 1 {
		t.Fatalf("AlivePeers after the re-hello = %v", got)
	}
	if l := r.AliveLoads(); len(l) != 0 {
		t.Fatalf("revived member ranked by its dead process's load: %+v", l)
	}
	probes := tr.probeCount(b)
	select {
	case <-r.wake:
	default:
		t.Fatal("the re-hello of a down member did not wake the loop")
	}
	r.cycle(true)
	if got := tr.probeCount(b) - probes; got != 1 {
		t.Fatalf("woken cycle probed the revived member %d times, want 1", got)
	}
	if l := r.AliveLoads(); len(l) != 1 || l[0].Load.QueueDepth != 0 {
		t.Fatalf("AliveLoads after the woken probe = %+v, want the new process's load", l)
	}
}

// TestWakeMidCycleIsNotLost: discoveries that land while a cycle is
// dialing are served by exactly one cycle after it — the wake slot holds
// the signal, and a burst of them is one signal.
func TestWakeMidCycleIsNotLost(t *testing.T) {
	const c, d = "http://c:3", "http://d:4"
	tr := newFakeTransport(peerA, c, d)
	dialing, release := make(chan struct{}), make(chan struct{})
	cycles := make(chan bool, 8) // far more than the two cycles the loop runs
	r := New(Options{Seeds: []string{peerA}, ProbeInterval: time.Hour})
	var bootDial sync.Once
	r.probe = probeHook{transport: tr, after: func() {
		bootDial.Do(func() { // the boot cycle's one dial parks here
			close(dialing)
			<-release
		})
	}}
	r.cycleDone = func(woken bool) { cycles <- woken }
	r.Start()
	<-dialing
	r.Hello(c)
	r.Hello(d)
	close(release)
	if woken := <-cycles; woken {
		t.Fatal("the boot cycle reported itself woken")
	}
	if woken := <-cycles; !woken {
		t.Fatal("the cycle after a mid-cycle hello was not a woken one")
	}
	r.Close()
	if len(cycles) != 0 || len(r.wake) != 0 {
		t.Fatalf("two mid-cycle hellos ran more than one woken cycle (%d finished, %d pending)", len(cycles), len(r.wake))
	}
	for url, want := range map[string]int{peerA: 1, c: 1, d: 1} {
		if got := tr.probeCount(url); got != want {
			t.Errorf("%s probed %d times, want %d", url, got, want)
		}
	}
	if got := r.AlivePeers(); len(got) != 3 {
		t.Fatalf("AlivePeers = %v, want all three", got)
	}
}

// TestWakeHelloVoidingAProbeAsksForAnother: the hello back from a peer
// can land while the cycle that greeted it is still dialing. The gen
// guard voids that cycle's verdict, so the hello must leave a wake
// behind or the member would sit unconfirmed, load unknown, until the
// next tick.
func TestWakeHelloVoidingAProbeAsksForAnother(t *testing.T) {
	tr := newFakeTransport(peerA)
	tr.setLoad(peerA, sweepd.LoadInfo{QueueDepth: 3})
	r, _ := testRegistry(t, Options{Seeds: []string{peerA}, ProbeInterval: 10 * time.Second}, tr)
	r.probe = probeHook{transport: tr, after: func() { r.Hello(peerA) }}
	r.probeOnce()
	if l := r.AliveLoads(); len(l) != 0 {
		t.Fatalf("a probe the hello overtook was applied anyway: %+v", l)
	}
	select {
	case <-r.wake:
	default:
		t.Fatal("the hello voided the in-flight probe and asked for no other")
	}
	r.probe = tr
	r.cycle(true)
	if l := r.AliveLoads(); len(l) != 1 || l[0].Load.QueueDepth != 3 {
		t.Fatalf("AliveLoads after the woken re-probe = %+v", l)
	}
	if len(r.wake) != 0 {
		t.Fatal("a confirmed member's probe left a wake behind")
	}
}
