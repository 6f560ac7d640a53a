package sweepd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
	"repro/internal/stats"
	"repro/internal/sweepd/store"
)

// maxReplicaBody bounds one POST /peer/replicas/{id} body (manifest +
// full checkpoint + sidecar), mirroring the adoption tail-fetch cap.
const maxReplicaBody = 64 << 20

// Config tunes the HTTP layer. The zero value serves with production
// defaults: 150ms follow-mode polling, 15s heartbeats, no rate limits.
type Config struct {
	// PollInterval is how often follow mode re-checks a running job's
	// checkpoint for growth; HeartbeatInterval is how long a follow
	// stream may stay silent before a blank keep-alive line goes out.
	PollInterval      time.Duration
	HeartbeatInterval time.Duration
	// ReadRate and MutateRate are per-endpoint-class token-bucket limits
	// in requests/second (burst = one second's worth, minimum 1). Read
	// covers the GET /sweeps endpoints; Mutate covers POST /sweeps and
	// DELETE /sweeps/{id}; Peer covers the /peer/* sharding endpoints (a
	// class of its own, so a chatty leader can neither starve nor be
	// starved by interactive clients). Separate buckets mean heavy
	// readers cannot starve submissions. /healthz and /metrics are exempt
	// so liveness probes and scrapers never see 429. <= 0 disables that
	// class's limit.
	ReadRate   float64
	MutateRate float64
	PeerRate   float64
	// ReplicaRate is its own class for POST /peer/replicas/{id}: replica
	// pushes carry whole checkpoints, so they must not drain the peer
	// bucket that gossip pulls and lease streams depend on.
	ReplicaRate float64
	// ReplicaStats, when set, feeds the replicator's push counters
	// (pushed, failures, bytes) into /metrics and /healthz;
	// cmd/ncg-server wires it to the sweepd.Replicator.
	ReplicaStats func() ReplicaStats
	// PeerStats, when set, feeds the leader-side sharding counters
	// (leases issued, remote cells, failures) into /metrics and /healthz;
	// cmd/ncg-server wires it to the shard.Pool.
	PeerStats func() PeerStats
	// Cluster, when set, enables the membership endpoints (POST
	// /peer/hello, GET /peer/members) and the per-peer state gauges;
	// cmd/ncg-server wires it to the cluster.Registry. Nil means the
	// membership endpoints answer 503. When the value also implements
	// LeaseTable (cluster.Registry does), the gossip payload carries
	// job leases and tombstones and POST /peer/jobs/claim is live.
	Cluster Membership
	// Sched, when set, routes POST /sweeps through the cluster
	// scheduler (capacity-aware placement, forwarding); cmd/ncg-server
	// wires it to the sched.Scheduler. Nil means submissions always
	// run locally.
	Sched Submitter
	// SchedStats, when set, feeds the scheduler counters (forwards,
	// adoptions, leadership losses) into /metrics and /healthz.
	SchedStats func() SchedStats
	// now is the rate limiter's clock; tests inject a fake.
	now func() time.Time
}

// handler carries the serving knobs alongside the manager; tests shrink
// the intervals to drive follow mode fast.
type handler struct {
	m                 *Manager
	pollInterval      time.Duration
	heartbeatInterval time.Duration

	readBucket    *tokenBucket
	mutateBucket  *tokenBucket
	peerBucket    *tokenBucket
	replicaBucket *tokenBucket
	// throttled counts 429s issued by the rate limiter; quotaRejections
	// counts submissions refused by the -max-jobs cap.
	throttled       atomic.Uint64
	quotaRejections atomic.Uint64
	// leasesServed / leaseCellsServed count the follower side of the
	// sharding protocol: leases this daemon completed for remote leaders
	// and the cell lines streamed back. peerStats, when non-nil, snapshots
	// the leader side (wired from the shard.Pool).
	leasesServed     atomic.Uint64
	leaseCellsServed atomic.Uint64
	peerStats        func() PeerStats
	// cluster serves the membership endpoints (nil = not clustered).
	cluster Membership
	// sched places submissions cluster-wide (nil = always local);
	// schedStats snapshots its counters for /metrics and /healthz.
	sched      Submitter
	schedStats func() SchedStats
	// replicaStats snapshots the replicator's push counters; the receive
	// and read-fan-out side is counted here in the handler.
	replicaStats func() ReplicaStats
	// replicasReceived / replicaBytesReceived count verified replica
	// pushes landed on this daemon; replicaReads counts terminal reads
	// served from the local replica set; replicaRedirects counts reads of
	// unknown jobs answered with a one-hop redirect to a likely holder;
	// notModified counts conditional reads answered 304.
	replicasReceived     atomic.Uint64
	replicaBytesReceived atomic.Uint64
	replicaReads         atomic.Uint64
	replicaRedirects     atomic.Uint64
	notModified          atomic.Uint64

	mu        sync.Mutex
	summaries map[string]*summaryState
}

// tokenBucket is a minimal clock-injectable token bucket: rate tokens
// per second, burst capacity, one token per request. A nil bucket is
// unlimited.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate float64, now func() time.Time) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	burst := math.Max(rate, 1)
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, now: now}
}

// allow takes one token if available; otherwise it reports how long
// until the next token accrues (the Retry-After hint).
func (tb *tokenBucket) allow() (bool, time.Duration) {
	if tb == nil {
		return true, 0
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := tb.now()
	if !tb.last.IsZero() {
		tb.tokens = math.Min(tb.burst, tb.tokens+now.Sub(tb.last).Seconds()*tb.rate)
	}
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		return true, 0
	}
	return false, time.Duration((1 - tb.tokens) / tb.rate * float64(time.Second))
}

// rateLimit classifies each request into an endpoint-class bucket and
// sheds load with 429 + Retry-After when the bucket is dry. /healthz
// and /metrics bypass the limiter entirely.
func (h *handler) rateLimit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
			next.ServeHTTP(w, r)
			return
		}
		bucket, class := h.readBucket, "read"
		switch {
		case strings.HasPrefix(r.URL.Path, "/peer/replicas"):
			bucket, class = h.replicaBucket, "replica"
		case strings.HasPrefix(r.URL.Path, "/peer/"):
			bucket, class = h.peerBucket, "peer"
		case r.Method != http.MethodGet && r.Method != http.MethodHead:
			bucket, class = h.mutateBucket, "mutate"
		}
		ok, wait := bucket.allow()
		if !ok {
			secs := int(math.Ceil(wait.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			h.throttled.Add(1)
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("rate limit exceeded for %s requests; retry in %ds", class, secs))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// NewHandlerConfig builds the sweepd HTTP JSON API over a manager, with
// the serving knobs (rate limits, follow-mode intervals) of cfg — the
// zero Config serves with production defaults:
//
//	POST   /sweeps              submit a Spec; idempotent (same spec ⇒ same job)
//	GET    /sweeps              list job snapshots
//	GET    /sweeps/{id}         one job snapshot
//	GET    /sweeps/{id}/results stream the checkpoint as NDJSON (results so far);
//	                            ?follow=1 tails a running job to its terminal
//	                            status (sent as the X-Sweep-Status trailer);
//	                            done jobs carry a strong ETag and honor
//	                            If-None-Match with 304
//	GET    /sweeps/{id}/summary per-(α,k) stats.Summarize roll-ups, server-side
//	GET    /sweeps/{id}/trajectories
//	                            stream the per-round trajectory sidecar as
//	                            NDJSON (404 unless the spec set trajectories)
//	DELETE /sweeps/{id}         cancel a running job (409 if already terminal);
//	                            ?purge=1 evicts a terminal job entirely (store
//	                            dir, spill files, summary state)
//	POST   /peer/leases         compute a contiguous cell range for a peer
//	                            daemon, streaming canonical result lines back
//	                            (lease records carrying per-round stats for
//	                            trajectory specs — the follower half of the
//	                            sharding protocol)
//	POST   /peer/hello          a booting daemon announces its advertise URL
//	                            and is registered as an alive member
//	GET    /peer/members        this daemon's member table (self first), the
//	                            relay half of one-hop gossip; carries job
//	                            leases and tombstones when scheduling is on
//	POST   /peer/jobs           submit a Spec for local execution, bypassing
//	                            the scheduler (the receiving half of a
//	                            cluster forward)
//	POST   /peer/jobs/claim     an adopter announces its new job lease so
//	                            peers converge before the next gossip cycle
//	POST   /peer/replicas/{id}  receive one finished job's immutable
//	                            artifacts (manifest line + checkpoint +
//	                            sidecar), verified against the job's
//	                            content address and kernel hash and
//	                            generation-guarded against zombie leaders
//	GET    /healthz             liveness + job/cache counters
//	GET    /metrics             Prometheus text-format counters
//
// When replica storage is enabled, the GET /sweeps/{id}... reads also
// serve terminal jobs this daemon holds a replica of; a job held
// neither way answers one 307 hop toward a member the replica or lease
// table says has it.
func NewHandlerConfig(m *Manager, cfg Config) http.Handler {
	_, mux := buildHandler(m, cfg)
	return mux
}

// buildHandler wires the handler, its routes, and the rate-limiting
// middleware; tests use the *handler to reach internal state.
func buildHandler(m *Manager, cfg Config) (*handler, http.Handler) {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 150 * time.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 15 * time.Second
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	h := &handler{
		m:                 m,
		pollInterval:      cfg.PollInterval,
		heartbeatInterval: cfg.HeartbeatInterval,
		readBucket:        newTokenBucket(cfg.ReadRate, cfg.now),
		mutateBucket:      newTokenBucket(cfg.MutateRate, cfg.now),
		peerBucket:        newTokenBucket(cfg.PeerRate, cfg.now),
		replicaBucket:     newTokenBucket(cfg.ReplicaRate, cfg.now),
		peerStats:         cfg.PeerStats,
		cluster:           cfg.Cluster,
		sched:             cfg.Sched,
		schedStats:        cfg.SchedStats,
		replicaStats:      cfg.ReplicaStats,
		summaries:         make(map[string]*summaryState),
	}
	// Job GC must release the per-job summary state too, or the daemon
	// leaks one summaryState per job forever.
	m.OnEvict(func(id string) {
		h.mu.Lock()
		delete(h.summaries, id)
		h.mu.Unlock()
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /metrics", h.metrics)
	mux.HandleFunc("POST /sweeps", h.submit)
	mux.HandleFunc("GET /sweeps", h.list)
	mux.HandleFunc("GET /sweeps/{id}", h.get)
	mux.HandleFunc("GET /sweeps/{id}/results", h.results)
	mux.HandleFunc("GET /sweeps/{id}/summary", h.summary)
	mux.HandleFunc("GET /sweeps/{id}/trajectories", h.trajectories)
	mux.HandleFunc("DELETE /sweeps/{id}", h.cancel)
	mux.HandleFunc("POST /peer/leases", h.peerLease)
	mux.HandleFunc("POST /peer/hello", h.peerHello)
	mux.HandleFunc("GET /peer/members", h.peerMembers)
	mux.HandleFunc("POST /peer/jobs", h.peerSubmit)
	mux.HandleFunc("POST /peer/jobs/claim", h.peerClaim)
	mux.HandleFunc("POST /peer/replicas/{id}", h.receiveReplica)
	return h, h.rateLimit(mux)
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	// Stats walks the job table without copying or sorting it — a
	// liveness probe must not pay O(n log n) per poll over thousands of
	// retained jobs the way List() does.
	ms := h.m.Stats()
	total := 0
	for _, n := range ms.Jobs {
		total += n
	}
	payload := map[string]any{
		"status":         "ok",
		"jobs":           total,
		"jobs_by_status": ms.Jobs,
		"cache":          h.m.CacheStats(),
		// The capacity advertisement: peers cache this per-member from
		// their probe replies and place submissions on the least loaded.
		"load": h.m.Load(),
	}
	if h.peerStats != nil {
		payload["peers"] = h.peerStats()
	}
	if h.cluster != nil {
		payload["cluster"] = h.cluster.ClusterStats()
	}
	if h.schedStats != nil {
		payload["sched"] = h.schedStats()
	}
	if rs := h.m.Replicas(); rs != nil {
		rep := map[string]any{
			"received":       h.replicasReceived.Load(),
			"bytes_received": h.replicaBytesReceived.Load(),
			"reads_served":   h.replicaReads.Load(),
			"redirects":      h.replicaRedirects.Load(),
		}
		if ids, err := rs.List(); err == nil {
			rep["held"] = len(ids)
		}
		if h.replicaStats != nil {
			rep["push"] = h.replicaStats()
		}
		payload["replicas"] = rep
	}
	writeJSON(w, http.StatusOK, payload)
}

// peerHello serves POST /peer/hello: a booting daemon announces its
// advertise URL and is registered as an alive member at once (it just
// proved it can reach us; the probe loop keeps it honest from here).
// The response carries the member table, so a hello doubles as the
// joiner's first gossip pull.
func (h *handler) peerHello(w http.ResponseWriter, r *http.Request) {
	if h.cluster == nil {
		writeError(w, http.StatusServiceUnavailable, "cluster membership not enabled on this daemon")
		return
	}
	var req HelloRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 64*1024))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad hello JSON: "+err.Error())
		return
	}
	adv := NormalizePeerURL(req.AdvertiseURL)
	if !ValidPeerURL(adv) {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("advertise_url %q is not an absolute http(s) base URL", req.AdvertiseURL))
		return
	}
	h.cluster.Hello(adv)
	writeJSON(w, http.StatusOK, h.gossipPayload())
}

// gossipPayload builds the hello/members reply: the member table, plus
// job leases and tombstones when the registry keeps them (it does when
// scheduling is enabled) — the vehicle that spreads leadership state
// and decommissions cluster-wide.
func (h *handler) gossipPayload() MembersResponse {
	mr := MembersResponse{Members: h.cluster.Members()}
	if lt, ok := h.cluster.(LeaseTable); ok {
		mr.Leases = lt.Leases()
		mr.Tombstones = lt.Tombstones()
	}
	// Only this daemon's OWN replica ad rides along (receivers reject
	// hearsay), spreading replica placement one authoritative hop per
	// probe cycle, same as capacity.
	if rs := h.m.Replicas(); rs != nil {
		if s, ok := h.cluster.(interface{ Self() string }); ok {
			if self := s.Self(); self != "" {
				if ids, err := rs.List(); err == nil && len(ids) > 0 {
					mr.Replicas = []ReplicaAd{{URL: self, JobIDs: ids}}
				}
			}
		}
	}
	return mr
}

// peerMembers serves GET /peer/members: the member table, self first —
// the relay half of one-hop gossip (peers poll it each probe cycle).
func (h *handler) peerMembers(w http.ResponseWriter, r *http.Request) {
	if h.cluster == nil {
		writeError(w, http.StatusServiceUnavailable, "cluster membership not enabled on this daemon")
		return
	}
	writeJSON(w, http.StatusOK, h.gossipPayload())
}

// decodeSpec reads exactly one Spec JSON value from the request body,
// answering 400 itself on malformed input.
func decodeSpec(w http.ResponseWriter, r *http.Request) (Spec, bool) {
	var sp Spec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec JSON: "+err.Error())
		return Spec{}, false
	}
	// Exactly one JSON value: a body like {"n":10}{"garbage":true} must
	// not be silently accepted on the strength of its first value.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "trailing data after spec JSON")
		return Spec{}, false
	}
	return sp, true
}

// writeSubmitResult maps a submission outcome onto the wire: 429 for
// the -max-jobs quota, 500 for store failures (the server's disk, not
// the client's request), 400 for bad specs, 202 created / 200 existing.
func (h *handler) writeSubmitResult(w http.ResponseWriter, job Job, created bool, err error) {
	switch {
	case errors.Is(err, ErrJobQuota):
		h.quotaRejections.Add(1)
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrStore):
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusAccepted
	}
	writeJSON(w, code, job)
}

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	sp, ok := decodeSpec(w, r)
	if !ok {
		return
	}
	if h.sched == nil {
		job, created, err := h.m.Submit(sp)
		h.writeSubmitResult(w, job, created, err)
		return
	}
	placed, err := h.sched.SubmitSweep(r.Context(), sp)
	var redir *RedirectError
	if errors.As(err, &redir) {
		// Placement chose a peer but neither the forward nor local
		// admission could land the job; hand the client the peer's
		// submit endpoint to retry directly.
		w.Header().Set("Location", redir.URL+"/sweeps")
		writeError(w, http.StatusTemporaryRedirect,
			"sweep could not be placed here; resubmit to "+redir.URL)
		return
	}
	if err == nil && placed.PlacedOn != "" {
		// The job runs on a peer: point clients at the authoritative
		// copy and expose the placement decision for tooling.
		w.Header().Set("X-Sweep-Placement", placed.PlacedOn)
		w.Header().Set("Location", placed.PlacedOn+"/sweeps/"+placed.Job.ID)
	}
	h.writeSubmitResult(w, placed.Job, placed.Created, err)
}

// peerSubmit serves POST /peer/jobs: the receiving half of a scheduler
// forward. It always admits locally — never re-forwards — so a spec
// cannot ping-pong between two members whose load views disagree.
func (h *handler) peerSubmit(w http.ResponseWriter, r *http.Request) {
	sp, ok := decodeSpec(w, r)
	if !ok {
		return
	}
	job, created, err := h.m.Submit(sp)
	h.writeSubmitResult(w, job, created, err)
}

// peerClaim serves POST /peer/jobs/claim: an adopter pushes its new
// lease so this member learns the leadership change (and a zombie
// ex-leader cedes) before the next gossip cycle. The generation guard
// in the lease table decides acceptance.
func (h *handler) peerClaim(w http.ResponseWriter, r *http.Request) {
	lt, ok := h.cluster.(LeaseTable)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "cluster scheduling not enabled on this daemon")
		return
	}
	var lease JobLease
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&lease); err != nil {
		writeError(w, http.StatusBadRequest, "bad lease JSON: "+err.Error())
		return
	}
	if lease.JobID == "" || lease.Owner == "" || lease.Generation == 0 {
		writeError(w, http.StatusBadRequest, "lease needs job_id, owner, and a nonzero generation")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"accepted": lt.UpdateLease(lease)})
}

// receiveReplica serves POST /peer/replicas/{id}: a leader pushing one
// finished job's immutable artifacts. The body is one ReplicaManifest
// line, then the full canonical checkpoint, then (for trajectory specs)
// the full sidecar. Nothing lands unverified: the spec must hash to the
// job ID and the manifest kernel, and every line must be the canonical
// record of its grid position — so a stored replica is exactly as
// trustworthy as a locally computed checkpoint. The manifest generation
// is the zombie guard: a push from a deposed leader (lower generation
// than the stored copy's) answers 409 and changes nothing.
func (h *handler) receiveReplica(w http.ResponseWriter, r *http.Request) {
	rs := h.m.Replicas()
	if rs == nil {
		writeError(w, http.StatusServiceUnavailable, "replica storage not enabled on this daemon")
		return
	}
	id := r.PathValue("id")
	body, err := io.ReadAll(io.LimitReader(r.Body, maxReplicaBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading replica body: "+err.Error())
		return
	}
	if len(body) > maxReplicaBody {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("replica body exceeds %d bytes", maxReplicaBody))
		return
	}
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 {
		writeError(w, http.StatusBadRequest, "replica body has no manifest line")
		return
	}
	var m store.ReplicaManifest
	if err := json.Unmarshal(body[:nl], &m); err != nil {
		writeError(w, http.StatusBadRequest, "bad replica manifest: "+err.Error())
		return
	}
	checkpoint, trajectory, ok := splitReplicaBody(body[nl+1:], m.CheckpointLines)
	if !ok {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("replica body has fewer than the %d checkpoint lines the manifest frames", m.CheckpointLines))
		return
	}
	if _, err := VerifyReplica(id, m, checkpoint, trajectory); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if cur, err := rs.Manifest(id); err == nil {
		if cur.Generation > m.Generation {
			writeJSON(w, http.StatusConflict, map[string]any{
				"error": fmt.Sprintf("replica of job %s already stored at generation %d; push was generation %d",
					id, cur.Generation, m.Generation),
			})
			return
		}
		if cur.Generation == m.Generation {
			// Same generation ⇒ same leader ⇒ same immutable bytes
			// (determinism); re-pushes are idempotent.
			writeJSON(w, http.StatusOK, map[string]any{"stored": false, "held": true})
			return
		}
	}
	m.StoredAt = time.Now()
	if err := rs.Put(m, checkpoint, trajectory); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	h.replicasReceived.Add(1)
	h.replicaBytesReceived.Add(uint64(len(body)))
	writeJSON(w, http.StatusOK, map[string]any{"stored": true, "held": true})
}

// splitReplicaBody cuts a replica body (after the manifest line) at the
// end of its ckLines-th non-blank line: checkpoint bytes, then sidecar
// bytes. ok=false when fewer complete lines exist.
func splitReplicaBody(data []byte, ckLines int) (checkpoint, trajectory []byte, ok bool) {
	if ckLines < 0 {
		return nil, nil, false
	}
	off, seen := 0, 0
	for seen < ckLines {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return nil, nil, false
		}
		if len(bytes.TrimSpace(data[off:off+nl])) > 0 {
			seen++
		}
		off += nl + 1
	}
	return data[:off], data[off:], true
}

// replicaJob reconstructs a Job snapshot from a locally held replica of
// a finished job this manager never ran: the read-fan-out view. The
// snapshot is marked Replica so clients can tell it from the leader's.
func (h *handler) replicaJob(id string) (Job, bool) {
	rs := h.m.Replicas()
	if rs == nil {
		return Job{}, false
	}
	m, err := rs.Manifest(id)
	if err != nil || m.JobID != id {
		return Job{}, false
	}
	var sp Spec
	if err := json.Unmarshal(m.Spec, &sp); err != nil {
		return Job{}, false
	}
	sp.Normalize()
	total := sp.NumCells()
	return Job{
		ID:        id,
		Spec:      sp,
		Status:    StatusDone,
		Total:     total,
		Completed: total,
		Created:   m.Created,
		Finished:  m.Finished,
		Replica:   true,
	}, true
}

// redirectRead answers a read for a job this daemon holds neither a
// primary nor a replica of: one 307 hop to an alive member the replica
// table (or, failing that, the lease table) says has it. The forwarded
// URL carries hop=1 so a stale table cannot bounce a client around the
// mesh — the second daemon either serves or 404s. Returns false when
// there is nowhere to point (caller 404s).
func (h *handler) redirectRead(w http.ResponseWriter, r *http.Request, id string) bool {
	if h.cluster == nil || r.URL.Query().Get("hop") != "" {
		return false
	}
	self := ""
	if s, ok := h.cluster.(interface{ Self() string }); ok {
		self = s.Self()
	}
	target := ""
	if rt, ok := h.cluster.(ReplicaTable); ok {
		if holders := rt.ReplicaHolders(id); len(holders) > 0 {
			target = holders[0]
		}
	}
	if target == "" {
		if lt, ok := h.cluster.(LeaseTable); ok {
			for _, l := range lt.Leases() {
				if l.JobID == id && l.Owner != self {
					target = l.Owner
					break
				}
			}
		}
	}
	if target == "" || target == self {
		return false
	}
	h.replicaRedirects.Add(1)
	q := r.URL.Query()
	q.Set("hop", "1")
	w.Header().Set("Location", target+r.URL.Path+"?"+q.Encode())
	writeError(w, http.StatusTemporaryRedirect,
		"sweep not held here; retry against "+target)
	return true
}

func (h *handler) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": h.m.List()})
}

// lookup resolves the job a read is about: the manager's own job, else
// (read fan-out) this daemon's replica of a finished one. With neither
// it answers the request itself — one redirect hop toward a holder, else
// 404 — and reports ok=false.
func (h *handler) lookup(w http.ResponseWriter, r *http.Request, id string) (job Job, replica bool, ok bool) {
	if job, ok = h.m.Get(id); ok {
		return job, false, true
	}
	if job, ok = h.replicaJob(id); ok {
		return job, true, true
	}
	if !h.redirectRead(w, r, id) {
		writeError(w, http.StatusNotFound, "no such sweep")
	}
	return Job{}, false, false
}

func (h *handler) get(w http.ResponseWriter, r *http.Request) {
	if job, _, ok := h.lookup(w, r, r.PathValue("id")); ok {
		writeJSON(w, http.StatusOK, job)
	}
}

func (h *handler) results(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, replica, ok := h.lookup(w, r, id)
	if !ok {
		return
	}
	if replica {
		// A replica of the finished job serves the exact bytes the leader
		// would (verified on receipt, immutable since).
		h.replicaReads.Add(1)
		h.serveLinePrefix(w, r, id, h.m.Replicas().ResultsPath(id), job)
		return
	}
	if v := r.URL.Query().Get("follow"); v != "" {
		if follow, err := strconv.ParseBool(v); err == nil && follow {
			h.followResults(w, r, id)
			return
		}
	}
	h.serveLinePrefix(w, r, id, h.m.ResultsPath(id), job)
}

// serveLinePrefix streams a checkpoint-format file's whole-line prefix
// as NDJSON with the job status header — the shared tail of /results and
// /trajectories. The status is re-snapshotted only after the file is
// open: the job can reach a terminal status between the caller's
// existence check and the open, and a terminal label must only ever be
// attached to bytes read after it became terminal (runners sync the file
// before flipping the status, so status-then-read means "done" ⇒ the
// complete data). If the job was evicted in between, the caller's first
// snapshot is kept instead of serving an empty status. Only the
// whole-line prefix is served: a crashed writer can leave a torn final
// line that no runner has repaired yet, and half a JSON record must not
// reach clients.
func (h *handler) serveLinePrefix(w http.ResponseWriter, r *http.Request, id, path string, job Job) {
	f, err := os.Open(path)
	if err == nil {
		defer f.Close()
	}
	if j, ok := h.m.Get(id); ok {
		job = j
	}
	// A done job's results are immutable (and, by per-cell determinism,
	// byte-identical wherever they were computed), so id + kernel hash +
	// status is a strong validator: conditional polls answer 304 with no
	// body, from leader and replica alike.
	if job.Status == StatusDone {
		etag := resultsETag(job)
		w.Header().Set("ETag", etag)
		if etagMatch(r.Header.Get("If-None-Match"), etag) {
			h.notModified.Add(1)
			w.Header().Set("X-Sweep-Status", string(job.Status))
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	if os.IsNotExist(err) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Sweep-Status", string(job.Status))
		w.WriteHeader(http.StatusOK)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	fi, err := f.Stat()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	clamp, err := ncgio.LastCompleteOffset(f, fi.Size())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Status", string(job.Status))
	w.WriteHeader(http.StatusOK)
	io.Copy(w, io.NewSectionReader(f, 0, clamp)) //nolint:errcheck // client disconnects are routine
}

// resultsETag is the strong validator of a done job's immutable result
// bytes: content address + kernel hash + terminal status.
func resultsETag(job Job) string {
	kh := job.Spec.KernelHash()
	if len(kh) > 16 {
		kh = kh[:16]
	}
	return `"` + job.ID + "-" + kh + "-" + string(job.Status) + `"`
}

// etagMatch implements If-None-Match against one strong ETag.
func etagMatch(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		if c == etag || c == "*" {
			return true
		}
	}
	return false
}

// followResults tails a job's checkpoint until the job reaches a terminal
// status, streaming each newly appended whole line as it lands. The
// terminal status cannot be known when headers go out, so it travels as
// the X-Sweep-Status HTTP trailer instead.
func (h *handler) followResults(w http.ResponseWriter, r *http.Request, id string) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Trailer", "X-Sweep-Status")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	var f *os.File
	var tail *ncgio.Tailer
	defer func() {
		if f != nil {
			f.Close()
		}
	}()

	lastByte := time.Now()
	for {
		// Status before drain: when this snapshot is terminal, every byte
		// the finished runner synced is already on disk, so the drain
		// below yields the complete grid — the stream can never end on a
		// terminal status with bytes missing.
		job, ok := h.m.Get(id)
		if !ok {
			return
		}
		terminal := job.Status != StatusRunning

		if f == nil {
			// The checkpoint appears shortly after admission (and never,
			// for spec-load-failed jobs); keep trying while it is merely
			// absent. Any other open error makes the stream unprovable, so
			// end it without the trailer — same contract as a tail error.
			ff, err := os.Open(h.m.ResultsPath(id))
			switch {
			case err == nil:
				f = ff
				tail = ncgio.NewTailer(f)
			case !os.IsNotExist(err):
				return
			}
		}
		wrote := false
		if tail != nil {
			for {
				sec, n, err := tail.Next()
				if err != nil {
					// The stream can no longer be proven complete; end it
					// WITHOUT the terminal trailer so clients treat it as
					// truncated rather than trusting a final status.
					return
				}
				if n == 0 {
					break
				}
				if _, err := io.Copy(w, sec); err != nil {
					return // client gone
				}
				wrote = true
			}
		}
		if wrote {
			flush()
			lastByte = time.Now()
		}
		if terminal {
			w.Header().Set("X-Sweep-Status", string(job.Status))
			return
		}
		if time.Since(lastByte) >= h.heartbeatInterval {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return
			}
			flush()
			lastByte = time.Now()
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(h.pollInterval):
		}
	}
}

// trajectories streams a sweep's per-round trajectory sidecar as NDJSON
// (one ncgio.TrajectoryRecord line per cell). Jobs whose spec did not
// opt in are a 404 — the sidecar can never exist for them. Framing and
// status semantics are serveLinePrefix's, shared with /results.
func (h *handler) trajectories(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, replica, ok := h.lookup(w, r, id)
	if !ok {
		return
	}
	path := h.m.TrajectoryPath(id)
	if replica {
		path = h.m.Replicas().TrajectoryPath(id)
		h.replicaReads.Add(1)
	}
	if !job.Spec.Trajectories {
		writeError(w, http.StatusNotFound,
			`sweep did not opt into trajectories (set "trajectories": true in the spec)`)
		return
	}
	h.serveLinePrefix(w, r, id, path, job)
}

// peerLease serves POST /peer/leases, the follower half of the sharding
// protocol: validate the leader's spec and range, then stream each cell's
// canonical result line as the local pool produces it (in canonical
// order), with blank heartbeat lines while long cells compute so the
// leader's lease watchdog can tell "slow" from "dead". Trajectory specs
// stream ncgio lease records instead of bare result lines, carrying each
// cell's per-round stats alongside its canonical checkpoint bytes. A
// failure after streaming began simply ends the stream short — the leader
// counts lines and reclaims the remainder.
func (h *handler) peerLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad lease JSON: "+err.Error())
		return
	}
	sp := req.Spec
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if n := sp.NumCells(); req.Start < 0 || req.End > n || req.Start >= req.End {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("lease range [%d, %d) outside grid of %d cells", req.Start, req.End, n))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// The emitter and the heartbeat ticker share the connection; wmu also
	// guards lastByte so heartbeats only fill genuine silence. The
	// handler must not return while the ticker goroutine can still touch
	// the ResponseWriter, so it is joined (not just signaled) on the way
	// out.
	var wmu sync.Mutex
	lastByte := time.Now()
	stop := make(chan struct{})
	hbDone := make(chan struct{})
	defer func() {
		close(stop)
		<-hbDone
	}()
	go func() {
		defer close(hbDone)
		ticker := time.NewTicker(h.heartbeatInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-r.Context().Done():
				return
			case <-ticker.C:
				wmu.Lock()
				if time.Since(lastByte) >= h.heartbeatInterval {
					if _, err := io.WriteString(w, "\n"); err == nil {
						if flusher != nil {
							flusher.Flush()
						}
						lastByte = time.Now()
					}
				}
				wmu.Unlock()
			}
		}
	}()
	emit := func(line []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		if _, err := w.Write(line); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		lastByte = time.Now()
		h.leaseCellsServed.Add(1)
		return nil
	}
	if err := h.m.ServeLease(r.Context(), sp, req.Start, req.End, emit); err == nil {
		h.leasesServed.Add(1)
	}
}

// GroupSummary is one (α, k) row of a sweep summary: the §5.1 aggregates
// over that group's seeds, each a mean with its 95% CI half-width.
type GroupSummary struct {
	Alpha float64 `json:"alpha"`
	K     int     `json:"k"`
	// Diameter and SocialCostRatio summarize the final networks (the
	// ratio is social cost over the social optimum — "quality" in the
	// paper's figures); Rounds summarizes dynamics length.
	Diameter        stats.Summary `json:"diameter"`
	SocialCostRatio stats.Summary `json:"social_cost_ratio"`
	Rounds          stats.Summary `json:"rounds"`
	// ConvergedRate's mean is the fraction of the group's seeds whose
	// dynamics converged (the CI is over the 0/1 indicator sample).
	ConvergedRate stats.Summary `json:"converged_rate"`
}

// SweepSummary is the /sweeps/{id}/summary payload. While the job runs,
// Cells < TotalCells and the roll-ups cover the results so far.
type SweepSummary struct {
	ID         string         `json:"id"`
	Status     JobStatus      `json:"status"`
	Cells      int            `json:"cells"`
	TotalCells int            `json:"total_cells"`
	Groups     []GroupSummary `json:"groups"`
}

func (h *handler) summary(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Status before data, same invariant as /results: a terminal label is
	// only attached to checkpoint bytes read after the status flipped, so
	// "done" summaries always cover the full grid.
	job, replica, ok := h.lookup(w, r, id)
	if !ok {
		return
	}
	path := h.m.ResultsPath(id)
	if replica {
		// Replica-held finished jobs summarize like any done job: the
		// roll-up runs over the replica checkpoint once, freezes, and
		// serves the frozen payload from then on.
		path = h.m.Replicas().ResultsPath(id)
		h.replicaReads.Add(1)
	}
	h.mu.Lock()
	st := h.summaries[id]
	if st == nil {
		st = newSummaryState()
		h.summaries[id] = st
	}
	h.mu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.final != nil {
		writeJSON(w, http.StatusOK, *st.final)
		return
	}
	if err := st.advance(path); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sum := st.build(job)
	if job.Status == StatusDone {
		// A done job's checkpoint never grows again, so freeze the built
		// summary and release the raw samples — long-lived daemons keep
		// one small payload per finished job instead of every per-cell
		// observation. (Canceled/failed jobs can be resumed, so their
		// samples stay live.)
		st.final = &sum
		st.roll = nil
	}
	writeJSON(w, http.StatusOK, sum)
}

// summaryGroupKey groups cells by parameter pair.
type summaryGroupKey struct {
	alpha float64
	k     int
}

// summaryState incrementally accumulates one job's per-(α,k) roll-up:
// each /summary request decodes only the checkpoint bytes appended since
// the previous one, so dashboard polling costs O(new cells) — never a
// full-grid re-read with every cell's final state decoded per poll.
// Checkpoints are appended in canonical α-major order, so first-seen
// group order is canonical too.
type summaryState struct {
	mu    sync.Mutex
	off   int64 // checkpoint bytes consumed so far
	cells int
	roll  *stats.Rollup[summaryGroupKey]
	// final is the frozen summary of a done job; once set, roll is
	// released and requests serve this payload directly.
	final *SweepSummary
}

func newSummaryState() *summaryState {
	return &summaryState{
		roll: stats.NewRollup[summaryGroupKey]("diameter", "social_cost_ratio", "rounds", "converged"),
	}
}

func (st *summaryState) reset() {
	fresh := newSummaryState()
	st.off, st.cells, st.roll = fresh.off, fresh.cells, fresh.roll
}

// advance folds the checkpoint's newly appended clean records into the
// roll-up. A file that vanished or shrank below the consumed offset means
// the checkpoint was replaced (per-cell determinism guarantees any
// rewrite is prefix-identical, so only an actual shrink forces a rebuild).
func (st *summaryState) advance(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		if st.off > 0 {
			st.reset()
		}
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	if size < st.off {
		st.reset()
	}
	if size == st.off {
		return nil
	}
	buf := make([]byte, size-st.off)
	if _, err := io.ReadFull(io.NewSectionReader(f, st.off, size-st.off), buf); err != nil {
		return err
	}
	recs, clean := ncgio.DecodePrefix(buf)
	for _, r := range recs {
		conv := 0.0
		if r.Result.Status == dynamics.Converged {
			conv = 1
		}
		st.roll.Add(summaryGroupKey{r.Cell.Alpha, r.Cell.K},
			float64(r.Result.FinalStats.Diameter),
			r.Result.FinalStats.Quality,
			float64(r.Result.Rounds),
			conv)
	}
	st.off += int64(clean)
	st.cells += len(recs)
	return nil
}

func (st *summaryState) build(job Job) SweepSummary {
	out := SweepSummary{
		ID:         job.ID,
		Status:     job.Status,
		Cells:      st.cells,
		TotalCells: job.Total,
		Groups:     []GroupSummary{},
	}
	for _, key := range st.roll.Keys() {
		s := st.roll.Summaries(key)
		out.Groups = append(out.Groups, GroupSummary{
			Alpha:           key.alpha,
			K:               key.k,
			Diameter:        s["diameter"],
			SocialCostRatio: s["social_cost_ratio"],
			Rounds:          s["rounds"],
			ConvergedRate:   s["converged"],
		})
	}
	return out
}

func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// series declares a metric family and writes its one unlabelled
	// sample; a nil v declares only, for the labelled samples that follow
	// (format is the sample's name and label set).
	series := func(name, kind, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		if v != nil {
			fmt.Fprintf(w, "%s %v\n", name, v)
		}
	}
	sample := func(v any, format string, labels ...any) {
		fmt.Fprintf(w, format+" %v\n", append(labels, v)...)
	}
	states := []string{"alive", "suspect", "down"}

	ms := h.m.Stats()
	cs := h.m.CacheStats()
	cellsPerSec := 0.0
	if secs := ms.Uptime.Seconds(); secs > 0 {
		cellsPerSec = float64(ms.CellsAppended) / secs
	}
	series("sweepd_cells_appended_total", "counter", "Checkpoint lines written since daemon start (computed or cache-served).", ms.CellsAppended)
	series("sweepd_cells_per_second", "gauge", "Mean checkpoint throughput over the daemon's uptime.", cellsPerSec)
	series("sweepd_uptime_seconds", "gauge", "Seconds since the daemon's manager started.", ms.Uptime.Seconds())
	series("sweepd_cache_hits_total", "counter", "Result-cache hits (memory and disk tiers).", cs.Hits)
	series("sweepd_cache_disk_hits_total", "counter", "Subset of hits promoted from the disk spill tier.", cs.DiskHits)
	series("sweepd_cache_misses_total", "counter", "Result-cache misses.", cs.Misses)
	series("sweepd_cache_evictions_total", "counter", "Memory-tier LRU evictions.", cs.Evictions)
	series("sweepd_cache_entries", "gauge", "Entries resident in the memory tier.", cs.Entries)
	series("sweepd_jobs", "gauge", "Jobs per lifecycle status.", nil)
	for _, st := range []JobStatus{StatusRunning, StatusDone, StatusCanceled, StatusFailed} {
		sample(ms.Jobs[st], "sweepd_jobs{status=%q}", st)
	}
	series("sweepd_jobs_evicted_total", "counter", "Jobs removed by TTL GC or explicit purge.", ms.JobsEvicted)
	series("sweepd_spill_bytes_reclaimed_total", "counter", "Cache spill-file bytes deleted by job eviction.", ms.SpillBytesReclaimed)
	series("sweepd_queue_depth", "gauge", "Running jobs contending for the shared worker gate.", ms.QueueDepth)
	series("sweepd_busy_workers", "gauge", "Worker-pool tokens currently checked out.", ms.BusyWorkers)
	series("sweepd_throttled_requests_total", "counter", "Requests shed with 429 by the rate limiter.", h.throttled.Load())
	series("sweepd_quota_rejections_total", "counter", "Submissions refused by the -max-jobs cap.", h.quotaRejections.Load())
	series("sweepd_cache_coalesced_total", "counter", "Computations avoided by in-flight (kernel, cell) dedup.", cs.Coalesced)
	series("sweepd_peer_leases_served_total", "counter", "Leases this daemon completed for remote leaders.", h.leasesServed.Load())
	series("sweepd_peer_cells_served_total", "counter", "Cell result lines streamed to remote leaders.", h.leaseCellsServed.Load())
	series("sweepd_remote_cells_total", "counter", "Cells of this daemon's jobs computed by peers.", ms.RemoteCells)
	if h.peerStats != nil {
		ps := h.peerStats()
		series("sweepd_peers", "gauge", "Peer daemons configured for sharding.", ps.Peers)
		series("sweepd_peer_leases_issued_total", "counter", "Lease attempts sent to peers.", ps.LeasesIssued)
		series("sweepd_peer_lease_failures_total", "counter", "Leases that failed and were reclaimed locally.", ps.LeaseFailures)
	}
	if h.cluster != nil {
		cl := h.cluster.ClusterStats()
		series("sweepd_cluster_members", "gauge", "Known cluster members per health state (self excluded).", nil)
		for _, state := range states {
			sample(cl.MembersByState[state], "sweepd_cluster_members{state=%q}", state)
		}
		series("sweepd_cluster_peer_state", "gauge", "Per-peer membership state (1 = current state).", nil)
		for _, m := range h.cluster.Members() {
			if m.Self {
				continue
			}
			for _, state := range states {
				v := 0
				if m.State == state {
					v = 1
				}
				sample(v, "sweepd_cluster_peer_state{peer=%q,state=%q}", m.URL, state)
			}
		}
		series("sweepd_cluster_probes_total", "counter", "Health probes sent to peers.", cl.Probes)
		series("sweepd_cluster_probe_failures_total", "counter", "Health probes that failed.", cl.ProbeFailures)
		series("sweepd_cluster_backoffs_total", "counter", "Times a down peer's probe backoff was raised.", cl.Backoffs)
		series("sweepd_cluster_readmissions_total", "counter", "Down peers revived by a successful probe or hello.", cl.Readmissions)
		series("sweepd_cluster_tombstones", "gauge", "Decommissioned member URLs currently barred from gossip resurrection.", cl.Tombstones)
		series("sweepd_cluster_tombstoned_total", "counter", "Members decommissioned after staying down past the tombstone deadline.", cl.Tombstoned)
		series("sweepd_cluster_job_leases", "gauge", "Job leadership leases in this member's table.", cl.Leases)
	}
	if h.schedStats != nil {
		ss := h.schedStats()
		series("sweepd_sched_forwards_total", "counter", "Submissions forwarded to a less-loaded member.", ss.Forwards)
		series("sweepd_sched_forward_failures_total", "counter", "Forwards that failed and fell back to local admission.", ss.ForwardFailures)
		series("sweepd_sched_adoptions_total", "counter", "Orphaned jobs this member adopted from dead leaders.", ss.Adoptions)
		series("sweepd_sched_leadership_lost_total", "counter", "Local jobs ceded to a peer holding a newer lease generation.", ss.LeadershipLost)
		series("sweepd_sched_replica_seeds_total", "counter", "Adoptions seeded from a local replica instead of an HTTP tail-fetch.", ss.ReplicaSeeds)
	}
	if h.replicaStats != nil {
		rs := h.replicaStats()
		series("sweepd_replicas_pushed_total", "counter", "Finished-job replicas successfully pushed to peers.", rs.Pushed)
		series("sweepd_replica_push_failures_total", "counter", "Replica pushes that failed.", rs.PushFailures)
		series("sweepd_replica_bytes_pushed_total", "counter", "Body bytes of successful replica pushes.", rs.BytesPushed)
	}
	if rset := h.m.Replicas(); rset != nil {
		ids, _ := rset.List() // an unreadable replica dir reports as 0 held
		series("sweepd_replicas_held", "gauge", "Finished-job replicas currently stored for other members.", len(ids))
		series("sweepd_replicas_received_total", "counter", "Verified replica pushes stored on this daemon.", h.replicasReceived.Load())
		series("sweepd_replica_bytes_received_total", "counter", "Body bytes of stored replica pushes.", h.replicaBytesReceived.Load())
		series("sweepd_replica_reads_total", "counter", "Terminal reads served from this daemon's replica set.", h.replicaReads.Load())
		series("sweepd_replica_redirects_total", "counter", "Reads of unknown jobs answered with a one-hop redirect to a likely holder.", h.replicaRedirects.Load())
	}
	series("sweepd_not_modified_total", "counter", "Conditional reads answered 304 via ETag.", h.notModified.Load())
	// Per-job cell wall-time histograms (locally computed cells only).
	// Jobs with no observations are skipped, and evicted jobs drop their
	// series, so cardinality tracks the -max-jobs retention cap.
	if lats := h.m.JobLatencies(); len(lats) > 0 {
		series("sweepd_job_cell_seconds", "histogram", "Wall time of locally computed cells, per job.", nil)
		for _, jl := range lats {
			cum := uint64(0)
			for i, bound := range jl.Buckets {
				cum += jl.Counts[i]
				sample(cum, "sweepd_job_cell_seconds_bucket{job=%q,le=%q}", jl.ID, formatBound(bound))
			}
			cum += jl.Counts[len(jl.Buckets)]
			sample(cum, "sweepd_job_cell_seconds_bucket{job=%q,le=%q}", jl.ID, "+Inf")
			sample(jl.Sum, "sweepd_job_cell_seconds_sum{job=%q}", jl.ID)
			sample(jl.Count, "sweepd_job_cell_seconds_count{job=%q}", jl.ID)
		}
	}
}

// formatBound renders a histogram bucket bound the way Prometheus
// expects (shortest float representation, no exponent for these scales).
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

func (h *handler) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if v := r.URL.Query().Get("purge"); v != "" {
		purge, err := strconv.ParseBool(v)
		if err != nil {
			// Falling through to cancel here would halt a running sweep
			// the client only meant to purge.
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad purge value %q", v))
			return
		}
		if purge {
			h.purge(w, id)
			return
		}
	}
	job, ok := h.m.Cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such sweep")
		return
	}
	if job.Status != StatusRunning {
		// Nothing was canceled; saying 200 here would let clients believe
		// they stopped a job that had already finished (or failed).
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": fmt.Sprintf("sweep already %s", job.Status),
			"sweep": job,
		})
		return
	}
	fresh, _ := h.m.Get(id)
	writeJSON(w, http.StatusOK, fresh)
}

// purge handles DELETE /sweeps/{id}?purge=1: evict a terminal job
// entirely — store directory, spill files, summary state — instead of
// the default cancel-keeping-the-checkpoint semantics.
func (h *handler) purge(w http.ResponseWriter, id string) {
	job, ok, err := h.m.Evict(id)
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, "no such sweep")
	case errors.Is(err, ErrJobRunning):
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": "sweep is running (cancel it before purging) or mid-purge (retry)",
			"sweep": job,
		})
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, http.StatusOK, map[string]any{"purged": true, "sweep": job})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
