package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	mrand "math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sweepd"
)

// jitterRand is the default jitter source (tests inject a fixed one).
func jitterRand() float64 { return mrand.Float64() }

// newInstanceID mints the registry's random per-process identity.
func newInstanceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%016x", mrand.Uint64())
	}
	return hex.EncodeToString(b[:])
}

// State is a member's observed health.
type State string

const (
	// StateAlive: the last probe (or hello) succeeded; the peer receives
	// leases.
	StateAlive State = "alive"
	// StateSuspect: at least one probe (or a lease) failed but the peer
	// has not yet crossed the down threshold; it is probed every cycle
	// and excluded from new leases until a probe revives it.
	StateSuspect State = "suspect"
	// StateDown: downAfter consecutive probes failed; the peer is probed
	// on an exponential backoff with jitter so a flapping or dead machine
	// stops eating probe (and lease) attempts.
	StateDown State = "down"
)

// downAfter is how many consecutive probe failures turn a suspect member
// down.
const downAfter = 3

// backoffCap caps the down-member probe backoff, raised to ProbeInterval
// when that is longer. The backoff starts at ProbeInterval and doubles per
// failed probe, with jitter in [backoff/2, backoff] so a cluster restarted
// in unison does not re-probe in lockstep.
const backoffCap = 2 * time.Minute

// Options tunes a Registry. The zero value is production-ready for a
// passive daemon (no self URL, no seeds).
type Options struct {
	// Self is this daemon's own advertise URL. When set, the registry
	// announces it to every peer it successfully probes (once per
	// aliveness epoch), so booting daemons join the cluster without any
	// restart of the existing members. Empty means passive: the daemon
	// probes and leases but never announces itself.
	Self string
	// Seeds are the initially known peers (the -peers flag). They start
	// alive optimistically — exactly the old static-list behavior — and
	// the probe loop demotes any that turn out dead.
	Seeds []string
	// ProbeInterval is the health-probe cadence (default 5s). Alive and
	// suspect members are probed every interval; down members wait out
	// their backoff first.
	ProbeInterval time.Duration
	// SelfLoad, when set, supplies this daemon's own capacity snapshot
	// for Members() (gossip readers see the serving daemon's load without
	// probing it); node.New wires it to Manager.Load.
	SelfLoad func() sweepd.LoadInfo
	// TombstoneAfter decommissions members that stay down continuously
	// for this long: the member is dropped and a tombstone with the same
	// TTL is gossiped, so the whole cluster stops probing the dead URL
	// (and the scheduler can never place a job on it). 0 disables
	// tombstoning — down members are probed at the backoff cap forever.
	TombstoneAfter time.Duration
}

// member is the registry's record of one peer.
type member struct {
	url   string
	state State
	// fails counts consecutive probe failures; reset by any success.
	fails int
	// backoff is the current down-state probe delay (0 until down).
	backoff time.Duration
	// next is the earliest time the probe loop will dial this member
	// again. A tick cycle reads it for DOWN members only (their backoff
	// deadline): alive and suspect members are probed on every tick, so
	// a cycle that runs long can never silently halve the probing
	// cadence. A woken cycle dials exactly the members whose next has
	// passed — a member just discovered (hello, gossip) or revived has
	// next = "now"; every probe result pushes it a ProbeInterval ahead.
	next time.Time
	// lastSeen is the last successful contact (probe or hello).
	lastSeen time.Time
	// helloed records that we announced Self to this peer during its
	// current aliveness epoch; cleared on any probe failure and whenever
	// the peer's instance ID changes, so a restarted peer (which lost
	// its member table) is re-announced even if it never missed a probe.
	helloed bool
	// lastHelloErr dedupes hello-failure diagnostics: a persistent
	// rejection (bad advertise URL) is logged once, not every cycle.
	lastHelloErr string
	// instanceID is the peer's per-process identity as last observed by
	// a successful probe ("" until then, or when its payload did not
	// decode).
	instanceID string
	// gen counts externally driven state changes (hello, lease-failure
	// report). A probe cycle snapshots it before dialing and discards
	// its result if it moved: a probe success collected moments before a
	// peer died must not overwrite the lease failure that just demoted
	// it.
	gen uint64
	// load is the member's last-probed capacity snapshot; hasLoad marks
	// whether any probe has seen one (the scheduler skips members of
	// unknown capacity rather than treating them as idle).
	load    sweepd.LoadInfo
	hasLoad bool
	// downSince is when the member entered down (zero otherwise); it
	// feeds the tombstone clock.
	downSince time.Time
}

// transport abstracts the two peer RPCs so the state-machine tests can
// drive transitions without real HTTP.
type transport interface {
	// members pulls url's gossip payload (GET /peer/members), which is
	// also the health probe: err == nil means alive. The payload is nil
	// when a 2xx answer did not decode; otherwise its instance ID
	// identifies the process behind the URL and its load is the peer's
	// capacity snapshot.
	members(url string) (*sweepd.MembersResponse, error)
	// hello announces self to url (POST /peer/hello); the response
	// carries the receiver's gossip payload, nil when it did not decode.
	hello(url, self string) (*sweepd.MembersResponse, error)
}

// Registry tracks live cluster membership: it pulls every known peer's
// /peer/members on a background loop — the pull is both the health probe
// and one-hop gossip — applies exponential backoff to down peers, learns
// new members from hellos and gossip, and announces Self to peers it
// probes. It implements sweepd.Cluster for the HTTP layer, sched.Cluster
// for the scheduler and shard.PeerSource for the lease pool.
// A Registry is safe for concurrent use.
type Registry struct {
	opts  Options
	probe transport

	// randf is the jitter source; tests inject a fixed one.
	randf func() float64

	// ctx is the registry's lifetime: Close cancels it, which stops the
	// probe loop and ends the production transport's pending calls, so
	// Close never waits on a black-holed member.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	// wake asks the probe loop for a cycle now instead of at the next
	// tick: discovery (Hello, mergeGossipLocked) signals it after leaving
	// a member due. One slot and a non-blocking send, so a burst of
	// discoveries coalesces into one cycle and a signal that lands while
	// a cycle is running is served by the cycle after it.
	wake chan struct{}
	// cycleDone, when set, is called by the probe loop after each cycle
	// it runs (woken or tick), outside r.mu; tests synchronise on it.
	cycleDone func(woken bool)
	// started/closed guard double Start/Close.
	started bool
	closed  bool

	// instanceID is this process's random identity, served in
	// ClusterStats so peers can tell "that URL is me" and "that peer
	// restarted" apart from plain liveness.
	instanceID string

	mu      sync.Mutex
	self    string
	members map[string]*member
	// selfURLs are URLs known to address this very daemon: the
	// configured Self plus any URL whose probe answered with our own
	// instance ID (a non-advertising daemon can learn its own URL from
	// gossip). They are never registered as members — a daemon must not
	// lease sweep work to itself over loopback HTTP.
	selfURLs map[string]bool
	// leases is the job-leadership table, keyed by job ID, merged from
	// local heartbeats and gossip under the generation guard. Each
	// lease's Updated is its local receipt time, which feeds staleness.
	// A lease leaves only when its owner withdraws it: DropLease for our
	// own, the owner's next gossip payload for a peer's.
	leases map[string]sweepd.JobLease
	// tombs maps decommissioned URLs to their tombstone expiry.
	tombs map[string]time.Time
	// replicas maps member URL → the finished-job IDs it advertises
	// replicas of. Each entry comes only from that member's own gossiped
	// ReplicaAd (hearsay rejected), so a stale third party can never
	// point reads at a replica the holder dropped.
	replicas map[string][]string

	probes        atomic.Uint64
	probeFailures atomic.Uint64
	backoffs      atomic.Uint64
	readmissions  atomic.Uint64
	tombstoned    atomic.Uint64
}

// New builds a registry over the options; call Start to launch the probe
// loop (tests drive cycle directly instead).
func New(opts Options) *Registry {
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 5 * time.Second
	}
	r := &Registry{
		opts:       opts,
		randf:      jitterRand,
		done:       make(chan struct{}),
		wake:       make(chan struct{}, 1),
		instanceID: newInstanceID(),
		self:       sweepd.NormalizePeerURL(opts.Self),
		members:    make(map[string]*member),
		selfURLs:   make(map[string]bool),
		leases:     make(map[string]sweepd.JobLease),
		tombs:      make(map[string]time.Time),
		replicas:   make(map[string][]string),
	}
	if r.self != "" {
		r.selfURLs[r.self] = true
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	// Each member pull and hello gets ProbeInterval — floored at 3s so an
	// aggressive cadence never makes healthy loopback round-trips look
	// dead — so one black-holed peer cannot stall a probe cycle.
	r.probe = &httpTransport{ctx: r.ctx, timeout: max(opts.ProbeInterval, 3*time.Second)}
	for _, s := range sweepd.NormalizePeerURLs(opts.Seeds) {
		if r.selfURLs[s] {
			continue
		}
		if !sweepd.ValidPeerURL(s) {
			// The same admission rule POST /peer/hello enforces: a typo'd
			// seed must not enter the member table and spread cluster-wide
			// by gossip with no pruning path.
			slog.Warn("cluster: dropping invalid seed URL", "member", s)
			continue
		}
		// Seeds start alive and due immediately: the first probe cycle
		// confirms them, and a job submitted before it behaves exactly
		// like the old static -peers list.
		r.members[s] = &member{url: s, state: StateAlive}
	}
	return r
}

// Start launches the background probe loop: an immediate cycle (so seeds
// are confirmed, Self announced, and member lists pulled right away),
// then one tick cycle per ProbeInterval and, in between, one woken cycle
// whenever discovery leaves a member due (see wake), until Close. The
// ticks pace health checking, load refresh and backoff; the wakes make
// joining a matter of round trips instead of ProbeIntervals. The ticker
// starts before Start returns, so the next clock step reaches the loop.
func (r *Registry) Start() {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.mu.Unlock()
	tick, stop := sweepd.Time().NewTicker(r.opts.ProbeInterval)
	go func() {
		defer close(r.done)
		defer stop()
		for woken := false; ; {
			r.cycle(woken)
			if r.cycleDone != nil {
				r.cycleDone(woken)
			}
			select {
			case <-r.ctx.Done():
				return
			case <-tick:
				woken = false
			case <-r.wake:
				woken = true
			}
		}
	}()
}

// wakeLocked asks the probe loop for a cycle now. Never blocks: a signal
// already pending covers this one. Caller holds r.mu (so the member it
// left due is visible to the cycle the signal starts).
func (r *Registry) wakeLocked() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Close stops the probe loop and waits for the running cycle to
// drain. Safe to call more than once.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	started := r.started
	r.mu.Unlock()
	r.cancel()
	if started {
		<-r.done
	}
}

// Hello implements sweepd.Cluster: a peer announced itself, so it is
// demonstrably reachable — register it alive (reviving a down member).
// A member that is new or was down is left due and the probe loop is
// woken, so its load, identity and member table arrive a round trip
// later rather than at the next tick; a hello from a member a probe has
// already confirmed changes nothing the loop needs to act on.
func (r *Registry) Hello(advertiseURL string) {
	url := sweepd.NormalizePeerURL(advertiseURL)
	r.mu.Lock()
	defer r.mu.Unlock()
	if url == "" || r.selfURLs[url] {
		return
	}
	now := sweepd.Time().Now()
	if _, dead := r.tombs[url]; dead {
		// The URL just proved reachability; its decommission is void.
		delete(r.tombs, url)
		slog.Info("cluster: tombstone lifted by hello", "member", url)
	}
	m := r.members[url]
	if m == nil {
		m = &member{url: url, next: now}
		r.members[url] = m
		slog.Info("cluster: member joined by hello", "member", url)
	}
	if m.state == StateDown {
		r.readmissions.Add(1)
		slog.Info("cluster: member alive again by hello", "member", url, "was", StateDown)
		// The load is the dead process's; an election must not rank the
		// new one by it. The woken probe refills it.
		m.hasLoad = false
		m.next = now
	}
	m.state = StateAlive
	m.fails = 0
	m.backoff = 0
	m.lastSeen = now
	m.gen++
	if !m.next.After(now) {
		// New, revived, or a seed or gossip-learned member no probe has
		// confirmed yet — and the gen bump above has just voided the one
		// that may be pending.
		r.wakeLocked()
	}
}

// Members implements sweepd.Cluster: the known cluster, self first,
// then peers sorted by URL. Each row carries the member's last-probed
// load (self's comes live from SelfLoad), so the member table doubles
// as the cluster's capacity map.
func (r *Registry) Members() []sweepd.MemberInfo {
	var selfLoad *sweepd.LoadInfo
	if r.opts.SelfLoad != nil {
		l := r.opts.SelfLoad()
		selfLoad = &l
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]sweepd.MemberInfo, 0, len(r.members)+1)
	if r.self != "" {
		out = append(out, sweepd.MemberInfo{URL: r.self, State: string(StateAlive), Self: true, Load: selfLoad})
	}
	urls := make([]string, 0, len(r.members))
	for u := range r.members {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	for _, u := range urls {
		m := r.members[u]
		mi := sweepd.MemberInfo{URL: m.url, State: string(m.state), LastSeen: m.lastSeen}
		if m.hasLoad {
			l := m.load
			mi.Load = &l
		}
		out = append(out, mi)
	}
	return out
}

// Self reports this daemon's advertise URL ("" when not advertising).
func (r *Registry) Self() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.self
}

// AliveLoads snapshots the alive members whose capacity is known,
// sorted by URL — the adoption and replica candidates. Members no
// probe has load-sampled yet are excluded rather than treated as idle.
func (r *Registry) AliveLoads() []sweepd.MemberLoad {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]sweepd.MemberLoad, 0, len(r.members))
	for u, m := range r.members {
		if m.state == StateAlive && m.hasLoad {
			out = append(out, sweepd.MemberLoad{URL: u, Load: m.load})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// UpdateLease implements sched.Cluster: record or refresh one of our
// job leases under the generation guard (see updateLeaseLocked).
func (r *Registry) UpdateLease(l sweepd.JobLease) bool {
	l.Owner = sweepd.NormalizePeerURL(l.Owner)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.updateLeaseLocked(l)
}

// updateLeaseLocked stores a lease, local or gossiped, stamped with the
// receipt time. A lease without a job ID, an owner or a generation is
// refused. Otherwise the update wins when the job is unknown, the
// generation is strictly higher, or — at equal generation — the owner is
// unchanged (a heartbeat refresh) or lexicographically smaller (the
// deterministic tie-break two concurrent adopters converge on).
// Everything else is a stale claim and is rejected. Caller holds r.mu.
func (r *Registry) updateLeaseLocked(l sweepd.JobLease) bool {
	if l.JobID == "" || l.Owner == "" || l.Generation == 0 {
		return false
	}
	cur, ok := r.leases[l.JobID]
	switch {
	case !ok:
	case l.Generation > cur.Generation:
	case l.Generation == cur.Generation && l.Owner == cur.Owner:
	case l.Generation == cur.Generation && l.Owner < cur.Owner:
		slog.Info("cluster: lease tie broken", "job", l.JobID, "generation", l.Generation, "owner", l.Owner, "was", cur.Owner)
	default:
		return false
	}
	l.Updated = sweepd.Time().Now()
	r.leases[l.JobID] = l
	return true
}

// DropLease implements sched.Cluster: the job finished (or its
// leader released it), so remove the lease unless a higher generation
// has already claimed it.
func (r *Registry) DropLease(jobID string, gen uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.leases[jobID]; ok && cur.Generation <= gen {
		delete(r.leases, jobID)
	}
}

// Leases implements sweepd.Cluster and sched.Cluster: the lease table
// sorted by job ID, each lease's Updated stamp being this registry's
// local receipt time (never a remote clock).
func (r *Registry) Leases() []sweepd.JobLease {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]sweepd.JobLease, 0, len(r.leases))
	for _, l := range r.leases {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// Tombstones implements sweepd.Cluster: active tombstones sorted by
// URL.
func (r *Registry) Tombstones() []sweepd.Tombstone {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]sweepd.Tombstone, 0, len(r.tombs))
	for u, until := range r.tombs {
		out = append(out, sweepd.Tombstone{URL: u, Until: until})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// ClusterStats implements sweepd.Cluster.
func (r *Registry) ClusterStats() sweepd.ClusterStats {
	r.mu.Lock()
	byState := map[string]int{string(StateAlive): 0, string(StateSuspect): 0, string(StateDown): 0}
	for _, m := range r.members {
		byState[string(m.state)]++
	}
	tombs := len(r.tombs)
	leases := len(r.leases)
	r.mu.Unlock()
	return sweepd.ClusterStats{
		InstanceID:     r.instanceID,
		MembersByState: byState,
		Probes:         r.probes.Load(),
		ProbeFailures:  r.probeFailures.Load(),
		Backoffs:       r.backoffs.Load(),
		Readmissions:   r.readmissions.Load(),
		Tombstones:     tombs,
		Tombstoned:     r.tombstoned.Load(),
		Leases:         leases,
	}
}

// AlivePeers implements shard.PeerSource: the members currently safe to
// lease to, sorted for deterministic fan-out.
func (r *Registry) AlivePeers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.members))
	for u, m := range r.members {
		if m.state == StateAlive {
			out = append(out, u)
		}
	}
	sort.Strings(out)
	return out
}

// ReplicaHolders implements sweepd.Cluster: the advertise URLs of
// ALIVE members whose own gossiped ad lists a replica of the job,
// sorted. The read fan-out path redirects misses here; a down holder is
// excluded so one-hop redirects never point at a corpse.
func (r *Registry) ReplicaHolders(jobID string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for u, ids := range r.replicas {
		m := r.members[u]
		if m == nil || m.state != StateAlive {
			continue
		}
		for _, id := range ids {
			if id == jobID {
				out = append(out, u)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// ReportLeaseFailure implements the shard pool's failure feedback: a
// lease against an alive peer failed, so demote it to suspect until the
// next tick's probe — subsequent jobs skip it until a probe revives it,
// instead of each job rediscovering the corpse at lease-TTL cost.
func (r *Registry) ReportLeaseFailure(url string) {
	url = sweepd.NormalizePeerURL(url)
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.members[url]
	if m == nil || m.state != StateAlive {
		return
	}
	m.state = StateSuspect
	// next stays where the last probe left it, about one tick away: the
	// demotion is a damper, and a woken cycle re-probing a peer that
	// still answers its member pull would cancel it.
	m.helloed = false
	m.gen++
	slog.Warn("cluster: member suspect after a failed lease", "member", url, "was", StateAlive)
}

// cycle runs one probe cycle: pull every due member's gossip payload
// concurrently — the pull is the health probe — announce Self to newly
// confirmed peers, apply the state transitions, and merge the payloads
// (one-hop gossip). A woken cycle is the same pipeline over a narrower
// due set.
func (r *Registry) cycle(woken bool) {
	now := sweepd.Time().Now()
	r.mu.Lock()
	self := r.self
	due := make([]*member, 0, len(r.members))
	for _, m := range r.members {
		// A woken cycle is for the members discovery left due, not for
		// the whole table.
		if woken && m.next.After(now) {
			continue
		}
		// Alive and suspect members are probed every tick; only down
		// members wait out their backoff deadline. Gating the healthy
		// ones on a timestamp set mid-cycle would silently skip every
		// other tick.
		if m.state != StateDown || !m.next.After(now) {
			due = append(due, m)
		}
	}
	urls := make([]string, len(due))
	needHello := make([]bool, len(due))
	gens := make([]uint64, len(due))
	for i, m := range due {
		urls[i] = m.url
		needHello[i] = self != "" && !m.helloed
		gens[i] = m.gen
	}
	r.mu.Unlock()

	type outcome struct {
		ok       bool
		helloed  bool
		helloErr string
		learned  *sweepd.MembersResponse
	}
	results := make([]outcome, len(due))
	var wg sync.WaitGroup
	for i := range due {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := urls[i]
			r.probes.Add(1)
			mr, err := r.probe.members(url)
			if err != nil {
				r.probeFailures.Add(1)
				return
			}
			res := outcome{ok: true, learned: mr}
			if needHello[i] {
				if hr, herr := r.probe.hello(url, self); herr == nil {
					res.helloed = true
					if hr != nil {
						// The hello's reply is the same payload, newer: it
						// already lists us.
						res.learned = hr
					}
				} else {
					res.helloErr = herr.Error()
				}
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	now = sweepd.Time().Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, m := range due {
		if m.gen != gens[i] {
			// The member's state moved while this probe was pending (a
			// hello revived it, or a lease failure demoted it); the probe
			// observed the old world, so its verdict is stale — drop it
			// and let the next cycle re-decide.
			continue
		}
		res := results[i]
		if res.ok {
			var id string
			if res.learned != nil {
				id = res.learned.InstanceID
			}
			if id != "" && id == r.instanceID {
				// The member answered with our own instance ID: it is this
				// very daemon behind a URL we did not know was ours (a
				// non-advertising daemon's URL travels back via gossip from
				// the peers it seeds). Never lease to yourself — blacklist
				// the URL and drop the member.
				slog.Warn("cluster: member is this daemon itself; dropped", "member", m.url, "instance", r.instanceID)
				r.selfURLs[m.url] = true
				delete(r.members, m.url)
				continue
			}
			if m.instanceID != "" && id != m.instanceID {
				// Same URL, new process: the peer restarted without
				// missing a probe, so its member table (and our hello) is
				// gone — re-announce next cycle.
				m.helloed = false
			}
			m.instanceID = id
			if res.learned != nil && res.learned.Load != nil {
				m.load = *res.learned.Load
				m.hasLoad = true
			}
			if m.state == StateDown {
				r.readmissions.Add(1)
			}
			if m.state != StateAlive {
				slog.Info("cluster: member alive", "member", m.url, "was", m.state)
			}
			m.state = StateAlive
			m.fails = 0
			m.backoff = 0
			m.downSince = time.Time{}
			m.lastSeen = now
			m.next = now.Add(r.opts.ProbeInterval)
			if res.helloed {
				m.helloed = true
				m.lastHelloErr = ""
			} else if res.helloErr != "" && res.helloErr != m.lastHelloErr {
				// A refused announcement means this daemon may never join
				// that peer's cluster (typically a bad -advertise URL);
				// say so once per distinct error, not once per cycle.
				slog.Warn("cluster: hello rejected", "member", m.url, "err", res.helloErr)
				m.lastHelloErr = res.helloErr
			}
			if res.learned != nil {
				r.mergeGossipLocked(m.url, res.learned, now)
			}
			continue
		}
		m.fails++
		// Any failure invalidates our standing announcement: if the peer
		// is restarting right now, the new process will not know us.
		m.helloed = false
		if m.fails < downAfter {
			if m.state != StateSuspect {
				slog.Warn("cluster: member suspect after a failed probe", "member", m.url, "was", m.state)
			}
			m.state = StateSuspect
			m.next = now.Add(r.opts.ProbeInterval)
			continue
		}
		if m.state != StateDown {
			slog.Warn("cluster: member down", "member", m.url, "was", m.state, "fails", m.fails)
			m.downSince = now
		}
		m.state = StateDown
		prev := m.backoff
		if m.backoff == 0 {
			m.backoff = r.opts.ProbeInterval
		} else {
			m.backoff *= 2
		}
		m.backoff = min(m.backoff, max(backoffCap, r.opts.ProbeInterval))
		if m.backoff > prev {
			// Count actual raises only: a permanently dead peer parked at
			// the cap must not read as "flapping" on the backoff counter.
			r.backoffs.Add(1)
		}
		// Jitter in [backoff/2, backoff]: flapping peers spread out
		// instead of re-probing in lockstep.
		jittered := m.backoff/2 + time.Duration(r.randf()*float64(m.backoff/2))
		m.next = now.Add(jittered)
	}
	r.maintainLocked(now)
}

// mergeGossipLocked folds one peer's gossip payload into local state:
// unknown member URLs join as suspect, job leases merge under the
// generation guard (with the pulled peer authoritative for its own
// leases), and tombstones decommission members we cannot vouch for
// firsthand. Caller holds r.mu; from is the peer the payload came from.
func (r *Registry) mergeGossipLocked(from string, mr *sweepd.MembersResponse, now time.Time) {
	for _, mi := range mr.Members {
		u := sweepd.NormalizePeerURL(mi.URL)
		if u == "" || r.selfURLs[u] || r.members[u] != nil {
			continue
		}
		if _, dead := r.tombs[u]; dead {
			// Decommissioned: gossip alone must not resurrect the URL (a
			// hello or our own probe of a live process will).
			continue
		}
		if !sweepd.ValidPeerURL(u) {
			slog.Warn("cluster: ignoring invalid gossiped URL", "member", u, "via", from)
			continue
		}
		// Gossip-learned members start suspect: secondhand news is
		// verified by a probe before any lease rides on it — due now, and
		// the loop is woken for it, so "immediately" is a round trip and
		// not the rest of a ProbeInterval. Their gossiped load rides along
		// so the first election after promotion does not wait for a
		// second probe.
		m := &member{url: u, state: StateSuspect, next: now}
		if mi.Load != nil {
			m.load = *mi.Load
			m.hasLoad = true
		}
		r.members[u] = m
		r.wakeLocked()
	}

	// The pulled peer is authoritative for its own leases: merge what it
	// lists, then drop any lease it owns that it stopped listing (its
	// job finished and our copy is the leftover).
	fromOwns := make(map[string]bool)
	for _, l := range mr.Leases {
		l.Owner = sweepd.NormalizePeerURL(l.Owner)
		if l.Owner == r.self {
			// Our own leases are heartbeat firsthand by the scheduler; a
			// gossip echo must not refresh a lease whose local owner died.
			continue
		}
		if l.Owner == from {
			fromOwns[l.JobID] = true
		} else if o := r.members[l.Owner]; o != nil && o.state == StateAlive && !o.lastSeen.IsZero() {
			// An owner we have heard from and hold alive is pulled every
			// tick, so hearsay of its leases is no news, only a finished
			// job's lease bounced back after the owner dropped it. (A seed
			// is alive before any contact; a dead owner's job still
			// reaches its adopter by hearsay.)
			continue
		} else if cur, ok := r.leases[l.JobID]; ok &&
			cur.Generation == l.Generation && cur.Owner == l.Owner {
			// Hearsay must not refresh a lease we already hold: only the
			// owner itself, on a pull from it, vouches for its leader being
			// alive. Otherwise two survivors echoing a dead leader's lease
			// at each other would keep it forever fresh and no one would
			// ever adopt the job.
			continue
		}
		r.updateLeaseLocked(l)
	}
	for id, l := range r.leases {
		if l.Owner == from && !fromOwns[id] {
			delete(r.leases, id)
		}
	}

	// Replica ads are firsthand-only: the pulled peer is authoritative
	// for which replicas IT holds, and for nothing else. Its latest ad
	// replaces our previous copy wholesale (an empty or absent ad means
	// it holds none — GC may have expired them).
	var fromAd *sweepd.ReplicaAd
	for i := range mr.Replicas {
		if sweepd.NormalizePeerURL(mr.Replicas[i].URL) == from {
			fromAd = &mr.Replicas[i]
			break
		}
	}
	if fromAd != nil && len(fromAd.JobIDs) > 0 {
		r.replicas[from] = append([]string(nil), fromAd.JobIDs...)
	} else {
		delete(r.replicas, from)
	}

	for _, ts := range mr.Tombstones {
		u := sweepd.NormalizePeerURL(ts.URL)
		if u == "" || r.selfURLs[u] || !ts.Until.After(now) {
			continue
		}
		if m := r.members[u]; m != nil && m.state == StateAlive {
			// Firsthand liveness beats a secondhand death certificate; our
			// next probe cycle's hello will lift the tombstone at source.
			continue
		}
		if cur, ok := r.tombs[u]; !ok || ts.Until.After(cur) {
			if !ok {
				slog.Info("cluster: member decommissioned by gossiped tombstone", "member", u)
			}
			r.tombs[u] = ts.Until
		}
		delete(r.members, u)
	}
}

// maintainLocked runs the per-cycle housekeeping: decommission members
// that have been down past TombstoneAfter, expire tombstones, and forget
// the replica ads of members that left. Caller holds r.mu.
func (r *Registry) maintainLocked(now time.Time) {
	if ta := r.opts.TombstoneAfter; ta > 0 {
		for u, m := range r.members {
			if m.state != StateDown {
				continue
			}
			if m.downSince.IsZero() {
				m.downSince = now
				continue
			}
			if now.Sub(m.downSince) >= ta {
				delete(r.members, u)
				r.tombs[u] = now.Add(ta)
				r.tombstoned.Add(1)
				slog.Warn("cluster: member decommissioned", "member", u, "until", now.Add(ta))
			}
		}
	}
	for u, until := range r.tombs {
		if !until.After(now) {
			delete(r.tombs, u)
		}
	}
	for u := range r.replicas {
		if r.members[u] == nil {
			delete(r.replicas, u)
		}
	}
}

// httpTransport is the production transport: the shared peer client, each
// call under ctx (the registry's lifetime) and bounded by timeout.
type httpTransport struct {
	ctx     context.Context
	timeout time.Duration
}

func (t *httpTransport) members(url string) (*sweepd.MembersResponse, error) {
	return t.call(http.MethodGet, url+"/peer/members", nil)
}

func (t *httpTransport) hello(url, self string) (*sweepd.MembersResponse, error) {
	return t.call(http.MethodPost, url+"/peer/hello", sweepd.HelloRequest{AdvertiseURL: self})
}

// call sends one gossip call and decodes the payload it answers with. Any
// 2xx is success; a payload that did not decode comes back nil, so only
// a decoded one is ever merged.
func (t *httpTransport) call(method, url string, in any) (*sweepd.MembersResponse, error) {
	ctx, cancel := context.WithTimeout(t.ctx, t.timeout)
	defer cancel()
	mr := new(sweepd.MembersResponse)
	status, err := sweepd.Peer.JSON(ctx, method, url, in, mr, 4<<20, 0)
	if status == 0 {
		return nil, err
	}
	if err != nil {
		return nil, nil //nolint:nilerr // a 2xx with an odd body is still alive
	}
	return mr, nil
}
