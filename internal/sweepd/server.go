package sweepd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// Config tunes the HTTP layer. The zero value serves with no rate
// limits and without the cluster endpoints; time, the streams' 15s
// keep-alive included, is the daemon's clock (Time).
type Config struct {
	// Rate and PeerRate are token-bucket limits in requests/second
	// (burst = one second's worth, minimum 1) per endpoint class. Rate
	// caps each client class on its own bucket: reads (the GET /sweeps
	// endpoints) and mutations (POST /sweeps, DELETE /sweeps/{id}), so
	// heavy readers cannot starve submissions. PeerRate covers the
	// /peer/* sharding endpoints (a class of its own, so a chatty leader
	// can neither starve nor be starved by interactive clients).
	// /healthz, /metrics and GET /peer/members are exempt so liveness
	// probes and scrapers never see 429. <= 0 disables that class's limit.
	Rate     float64
	PeerRate float64
	// ReplicaRate is its own class for POST /peer/replicas/{id}: replica
	// pushes carry whole checkpoints, so they must not drain the peer
	// bucket that gossip pulls and lease streams depend on.
	ReplicaRate float64
	// ReplicaStats, when set, feeds the replicator's push counters
	// (pushed, failures, bytes) into /metrics and /healthz;
	// node.New wires it to the sweepd.Replicator.
	ReplicaStats func() ReplicaStats
	// PeerStats, when set, feeds the leader-side sharding counters
	// (leases issued, remote cells, failures) into /metrics and /healthz;
	// node.New wires it to the shard.Pool.
	PeerStats func() PeerStats
	// Cluster, when set, enables the membership endpoints (POST
	// /peer/hello, and GET /peer/members, whose payload carries the job
	// leases), the per-peer state gauges and read redirects; node.New
	// wires it to the cluster.Registry. Nil means those endpoints answer
	// 503.
	Cluster Cluster
	// Sched, when set, admits POST /sweeps through the cluster
	// scheduler; only bench/ sets it, and node.New leaves it nil because
	// Scheduler.SubmitSweep is Manager.Submit. Either way the job runs
	// on this daemon.
	Sched Submitter
	// SchedStats, when set, feeds the scheduler counters (adoptions,
	// leadership losses, replica seeds) into /metrics and /healthz.
	SchedStats func() SchedStats
}

// handler carries the serving knobs alongside the manager.
type handler struct {
	m *Manager

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
	cluster Cluster
	// sched admits submissions (nil = the manager directly); schedStats
	// snapshots its counters for /metrics and /healthz.
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
	// receiving serializes the replica pushes of a job (and of the jobs
	// whose IDs share its lock) between reading its manifest and Put.
	receiving [64]sync.Mutex

	mu        sync.Mutex
	summaries map[string]*summaryState
}

// NewHandlerConfig builds the sweepd HTTP JSON API over a manager, with
// the serving knobs (rate limits, cluster wiring) of cfg — the zero
// Config serves with production defaults:
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
//	                            dir, cache-index entries, summary state)
//	POST   /peer/leases         compute a contiguous cell range for a peer
//	                            daemon, streaming canonical result lines back
//	                            (each after its sidecar line for trajectory
//	                            specs — the follower half of the sharding
//	                            protocol)
//	POST   /peer/hello          a booting daemon announces its advertise URL
//	                            and is registered as an alive member
//	GET    /peer/members        this daemon's identity, load and member table
//	                            (self first): the relay half of one-hop
//	                            gossip and the peers' health probe, exempt
//	                            from rate limits; carries job leases (an
//	                            adopter's new one reaches every member
//	                            within one probe interval) and tombstones
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
	h := &handler{
		m:             m,
		readBucket:    newTokenBucket(cfg.Rate),
		mutateBucket:  newTokenBucket(cfg.Rate),
		peerBucket:    newTokenBucket(cfg.PeerRate),
		replicaBucket: newTokenBucket(cfg.ReplicaRate),
		peerStats:     cfg.PeerStats,
		cluster:       cfg.Cluster,
		sched:         cfg.Sched,
		schedStats:    cfg.SchedStats,
		replicaStats:  cfg.ReplicaStats,
		summaries:     make(map[string]*summaryState),
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
	mux.HandleFunc("POST /peer/hello", h.clustered(h.peerHello))
	mux.HandleFunc("GET /peer/members", h.clustered(h.peerMembers))
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
		// their probe replies and rank adopters and replica targets by it.
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
			"held":           len(rs.List()),
		}
		if h.replicaStats != nil {
			rep["push"] = h.replicaStats()
		}
		payload["replicas"] = rep
	}
	writeJSON(w, http.StatusOK, payload)
}

// decodeJSON reads exactly one JSON value from the first limit bytes of
// the request body into v, rejecting unknown fields, and answers 400
// itself on malformed input (what names the value in the message).
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad "+what+" JSON: "+err.Error())
		return false
	}
	// Exactly one JSON value: a body like {"n":10}{"garbage":true} must
	// not be silently accepted on the strength of its first value.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "trailing data after "+what+" JSON")
		return false
	}
	return true
}

// submit admits a spec and maps the outcome onto the wire: 429 for the
// -max-jobs quota, 500 for store failures (the server's disk, not the
// client's request), 400 for bad specs, 202 created / 200 existing.
func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	var sp Spec
	if !decodeJSON(w, r, 1<<20, "spec", &sp) {
		return
	}
	var job Job
	var created bool
	var err error
	if h.sched == nil {
		job, created, err = h.m.Submit(sp)
	} else {
		job, created, err = h.sched.SubmitSweep(r.Context(), sp)
	}
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

func (h *handler) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": h.m.List()})
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
// entirely — store directory, cache-index entries, summary state — instead of
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
