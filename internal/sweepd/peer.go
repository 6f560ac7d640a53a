package sweepd

import (
	"context"
	"fmt"
	"net/url"
	"strings"
	"time"

	"repro/internal/dynamics"
)

// LeaseRequest is the wire form of POST /peer/leases: a leader daemon
// asks a peer to compute the contiguous cell range [Start, End) of the
// spec's canonical grid. Both sides expand Spec.Cells() identically
// (canonical α-major order), so a pair of ints addresses the work without
// shipping the cells themselves. The peer streams back one canonical
// ncgio CellResult line per cell, in canonical order, with blank
// heartbeat lines interleaved while long cells compute; the leader
// counts lines, so a stream that ends short of End-Start records is a
// failed lease and the remainder is reclaimed. When the spec collects
// trajectories, each line is instead an ncgio lease record wrapping the
// canonical result line together with the cell's per-round stats (the
// bare codec intentionally drops them).
type LeaseRequest struct {
	Spec  Spec `json:"spec"`
	Start int  `json:"start"`
	End   int  `json:"end"`
}

// PeerStats snapshots the leader (client) side of the sharding layer for
// /metrics and /healthz. The follower (server) side — leases and cells
// served to remote leaders — is counted by the HTTP handler itself.
type PeerStats struct {
	// Peers is the number of peers the pool would lease to right now:
	// the cluster registry's alive members, self excluded.
	Peers int `json:"peers"`
	// LeasesIssued counts lease attempts sent to peers; LeaseFailures
	// counts the subset that failed (rejection, disconnect, heartbeat
	// expiry) and had their remainder reclaimed locally.
	LeasesIssued  uint64 `json:"leases_issued"`
	LeaseFailures uint64 `json:"lease_failures"`
	// RemoteCells counts cells whose results were computed by peers.
	RemoteCells uint64 `json:"remote_cells"`
}

// NormalizePeerURL canonicalizes a peer base URL for use as a membership
// key: surrounding whitespace and trailing slashes are stripped, so
// "http://a:1" and " http://a:1/ " address the same peer (and never
// produce "//peer/leases" request paths).
func NormalizePeerURL(s string) string {
	s = strings.TrimSpace(s)
	for strings.HasSuffix(s, "/") {
		s = strings.TrimSuffix(s, "/")
	}
	return s
}

// NormalizePeerURLs normalizes each URL, drops empties, and dedupes
// while preserving first-seen order — the shared parsing step behind
// -peers and the cluster registry, so no layer can spawn two lease
// streams against one peer spelled two ways.
func NormalizePeerURLs(urls []string) []string {
	out := make([]string, 0, len(urls))
	seen := make(map[string]bool, len(urls))
	for _, u := range urls {
		u = NormalizePeerURL(u)
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		out = append(out, u)
	}
	return out
}

// ValidPeerURL reports whether s is an absolute http(s) base URL — the
// one admission rule every membership path (POST /peer/hello, -peers
// seeds, gossip-learned URLs) applies, so a malformed URL can neither
// enter a member table nor spread through the cluster by gossip.
func ValidPeerURL(s string) bool {
	u, err := url.Parse(s)
	return err == nil && (u.Scheme == "http" || u.Scheme == "https") && u.Host != ""
}

// LoadInfo is one daemon's capacity snapshot, advertised in /healthz and
// gossiped with the member table so every member can rank placement
// targets without extra RPCs. All three fields come from ManagerStats.
type LoadInfo struct {
	// QueueDepth is the number of running jobs contending for the worker
	// gate — the primary placement signal (a daemon with fewer whole jobs
	// finishes a new one sooner regardless of instantaneous CPU use).
	QueueDepth int `json:"queue_depth"`
	// BusyWorkers is how many worker-pool tokens are checked out right
	// now (local cells and lease serving both draw tokens).
	BusyWorkers int `json:"busy_workers"`
	// RunningJobs mirrors the jobs_by_status "running" gauge.
	RunningJobs int `json:"running_jobs"`
}

// Less orders loads lexicographically (queue depth, then busy workers,
// then running jobs): strictly less means "schedule there instead".
func (l LoadInfo) Less(o LoadInfo) bool {
	if l.QueueDepth != o.QueueDepth {
		return l.QueueDepth < o.QueueDepth
	}
	if l.BusyWorkers != o.BusyWorkers {
		return l.BusyWorkers < o.BusyWorkers
	}
	return l.RunningJobs < o.RunningJobs
}

// MemberLoad pairs an alive member with its last-probed load snapshot.
type MemberLoad struct {
	URL  string   `json:"url"`
	Load LoadInfo `json:"load"`
}

// JobLease is a leader's claim on a running job, heartbeat into the
// member table and carried by gossip. The spec travels inside the lease
// so any member can restart the job from nothing but its gossip state —
// the dead leader's disk is not needed. Generation is the split-brain
// guard: adoption bumps it, and a lease update that loses the
// generation comparison is rejected, so a zombie ex-leader's heartbeats
// cannot reclaim a job a peer has legitimately adopted.
type JobLease struct {
	JobID string `json:"job_id"`
	Spec  Spec   `json:"spec"`
	// Owner is the leader's advertise URL.
	Owner string `json:"owner"`
	// Generation starts at 1 and is bumped by each adoption. Ties (two
	// members adopting the same generation concurrently) resolve to the
	// lexicographically smaller owner URL, identically on every member.
	Generation uint64 `json:"generation"`
	// Completed / Total snapshot checkpoint progress at heartbeat time —
	// observability only; the adopter re-derives real progress from the
	// checkpoint bytes it can actually fetch.
	Completed int `json:"completed"`
	Total     int `json:"total"`
	// Updated is stamped locally by each registry that stores the lease
	// (receipt time, not the owner's clock), so adoption staleness checks
	// never depend on cross-host clock agreement.
	Updated time.Time `json:"updated,omitzero"`
}

// Tombstone decommissions a dead member: gossiped alongside the member
// table so the whole cluster stops probing (and scheduling onto) a URL
// that has been down for the tombstone TTL. A hello from the URL lifts
// the tombstone — it just proved reachability.
type Tombstone struct {
	URL   string    `json:"url"`
	Until time.Time `json:"until"`
}

// PlacedJob is the result of a scheduled submission: the job snapshot
// plus where it landed ("" = this daemon; otherwise the peer base URL
// the spec was forwarded to).
type PlacedJob struct {
	Job      Job
	Created  bool
	PlacedOn string
}

// Submitter is the scheduling seam for POST /sweeps: when a Config
// installs one, submissions are placed cluster-wide instead of admitted
// locally. Implemented by sched.Scheduler.
type Submitter interface {
	SubmitSweep(ctx context.Context, sp Spec) (PlacedJob, error)
}

// RedirectError tells the HTTP layer to answer 307 with a Location: the
// scheduler chose a peer but could neither forward the spec nor admit
// it locally (quota), so the client should retry against the target
// directly.
type RedirectError struct {
	// URL is the chosen peer's base URL.
	URL string
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("sweepd: submit here failed; retry against %s", e.URL)
}

// SchedStats snapshots the scheduler for /healthz and /metrics.
type SchedStats struct {
	// Forwards counts submissions placed on a peer; ForwardFailures
	// counts forward attempts that failed and fell back (next peer or
	// local).
	Forwards        uint64 `json:"forwards"`
	ForwardFailures uint64 `json:"forward_failures"`
	// Adoptions counts orphaned jobs this daemon claimed from dead
	// leaders; LeadershipLost counts local jobs whose lease lost the
	// generation comparison (this daemon kept computing as a non-leader).
	Adoptions      uint64 `json:"adoptions"`
	LeadershipLost uint64 `json:"leadership_lost"`
	// ReplicaSeeds counts adoptions whose checkpoint was seeded from a
	// local replica instead of an HTTP tail-fetch from peers.
	ReplicaSeeds uint64 `json:"replica_seeds"`
}

// HelloRequest is the wire form of POST /peer/hello: a booting daemon
// announces its own advertise URL to a seed peer, which registers it as
// an alive member (and relays it to the rest of the cluster through
// GET /peer/members, which every daemon polls on its probe cycle).
type HelloRequest struct {
	AdvertiseURL string `json:"advertise_url"`
}

// MemberInfo is one row of GET /peer/members: a member's advertise URL
// and its observed health state ("alive", "suspect", or "down"). Self is
// set on the serving daemon's own entry, which is listed first.
type MemberInfo struct {
	URL      string    `json:"url"`
	State    string    `json:"state"`
	Self     bool      `json:"self,omitempty"`
	LastSeen time.Time `json:"last_seen,omitzero"`
	// Load is the member's last-probed capacity snapshot (nil until a
	// probe has seen one; the scheduler never places on a member whose
	// capacity is unknown).
	Load *LoadInfo `json:"load,omitempty"`
}

// ReplicaAd advertises which finished jobs a member holds replicas of.
// Each daemon gossips only its OWN ad (receivers reject hearsay — only
// ad.URL == the gossiping peer is merged), so the replica table spreads
// one authoritative hop at a time on the existing probe cycle, exactly
// like capacity.
type ReplicaAd struct {
	URL    string   `json:"url"`
	JobIDs []string `json:"job_ids"`
}

// ReplicaStats snapshots the replicator for /healthz and /metrics.
type ReplicaStats struct {
	// Pushed / PushFailures count replica POSTs by outcome; BytesPushed
	// totals the body bytes of successful pushes.
	Pushed       uint64 `json:"pushed"`
	PushFailures uint64 `json:"push_failures"`
	BytesPushed  uint64 `json:"bytes_pushed"`
}

// MembersResponse is the GET /peer/members (and POST /peer/hello
// response) payload. Leases, Tombstones, and Replicas ride along so one
// gossip pull per cycle carries membership, capacity, job leadership,
// decommissions, and replica placement at once.
type MembersResponse struct {
	Members    []MemberInfo `json:"members"`
	Leases     []JobLease   `json:"leases,omitempty"`
	Tombstones []Tombstone  `json:"tombstones,omitempty"`
	// Replicas carries replica advertisements; daemons include only
	// their own ad (receivers ignore entries for other URLs).
	Replicas []ReplicaAd `json:"replicas,omitempty"`
}

// ClusterStats snapshots the membership layer for /healthz and /metrics.
type ClusterStats struct {
	// InstanceID is this daemon's random per-process identity. Probes
	// read it from /healthz to detect two situations a URL alone cannot:
	// a member that is actually this daemon under an unadvertised URL
	// (never lease to yourself), and a peer that restarted without
	// missing a probe (its member table is gone; re-announce to it).
	InstanceID string `json:"instance_id,omitempty"`
	// MembersByState counts known peers (self excluded) per health state;
	// every state has an entry, possibly 0.
	MembersByState map[string]int `json:"members_by_state"`
	// Probes / ProbeFailures count health-probe attempts and the subset
	// that failed. Backoffs counts the times a down peer's probe backoff
	// was raised; Readmissions counts down peers revived by a successful
	// probe (or a fresh hello).
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	Backoffs      uint64 `json:"backoffs"`
	Readmissions  uint64 `json:"readmissions"`
	// Tombstones is the number of currently active tombstones;
	// Tombstoned counts members decommissioned since start.
	Tombstones int    `json:"tombstones"`
	Tombstoned uint64 `json:"tombstoned_total"`
	// Leases is the number of job leases in the member table.
	Leases int `json:"leases"`
}

// Cluster is the cluster.Registry as the HTTP layer drives it: membership
// (POST /peer/hello, GET /peer/members, /healthz, /metrics), the lease
// table behind the gossip payload and POST /peer/jobs/claim, and the
// replica table behind one-hop read redirects. The interface lives here
// so sweepd does not import its own subpackage, and so tests can fake it.
type Cluster interface {
	// Self returns this daemon's advertise URL ("" until known).
	Self() string
	// Hello registers (or revives) a peer that announced itself.
	Hello(advertiseURL string)
	// Members snapshots the known cluster, self first.
	Members() []MemberInfo
	// ClusterStats snapshots the probe/backoff counters.
	ClusterStats() ClusterStats
	// UpdateLease records (or refreshes) a job lease, reporting whether it
	// won the generation comparison (if not, someone else leads the job).
	UpdateLease(l JobLease) bool
	// Leases snapshots the lease table, sorted by job ID; Tombstones the
	// active tombstones, sorted by URL.
	Leases() []JobLease
	Tombstones() []Tombstone
	// ReplicaHolders returns the advertise URLs of alive members known
	// (from gossiped ReplicaAds) to hold a replica of the job — possibly
	// empty, never self.
	ReplicaHolders(jobID string) []string
}

// ExecutorProvider supplies the compute backend for each job, letting the
// peer-sharding layer (internal/sweepd/shard) plug in without sweepd
// importing it. ExecutorFor may return nil to mean "run locally" (e.g. no
// live peers). onRemote, when invoked by the returned executor, reports
// cells whose results arrived from peers — the manager feeds it into the
// job snapshot (Job.RemoteCells) and daemon metrics.
type ExecutorProvider interface {
	ExecutorFor(sp Spec, onRemote func(cells int)) dynamics.Executor
}
