package sweepd

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"

	"repro/internal/ncgio"
	"repro/internal/sweepd/store"
)

// maxReplicaBody bounds one POST /peer/replicas/{id} body (manifest +
// full checkpoint + sidecar), mirroring the adoption tail-fetch cap.
const maxReplicaBody = 64 << 20

// clustered guards the endpoints that drive the cluster registry: a daemon
// wired without one refuses with 503 — never a silent empty table or a
// dropped hello.
func (h *handler) clustered(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if h.cluster == nil {
			writeError(w, http.StatusServiceUnavailable, "cluster membership not enabled on this daemon")
			return
		}
		next(w, r)
	}
}

// peerHello serves POST /peer/hello: a booting daemon announces its
// advertise URL and is registered as an alive member at once (it just
// proved it can reach us; the probe loop keeps it honest from here).
// The response carries the member table, so a hello doubles as the
// joiner's first gossip pull.
func (h *handler) peerHello(w http.ResponseWriter, r *http.Request) {
	var req HelloRequest
	if !decodeJSON(w, r, 64*1024, "hello", &req) {
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

// gossipPayload builds the hello/members reply: this daemon's identity
// and load (what a peer's probe reads), then the member table, job
// leases and tombstones — the vehicle that spreads leadership state and
// decommissions cluster-wide.
func (h *handler) gossipPayload() MembersResponse {
	load := h.m.Load()
	mr := MembersResponse{
		InstanceID: h.cluster.ClusterStats().InstanceID,
		Load:       &load,
		Members:    h.cluster.Members(),
		Leases:     h.cluster.Leases(),
		Tombstones: h.cluster.Tombstones(),
	}
	// Only this daemon's OWN replica ad rides along (receivers reject
	// hearsay), spreading replica placement one authoritative hop per
	// probe cycle, same as capacity.
	if rs := h.m.Replicas(); rs != nil {
		if self := h.cluster.Self(); self != "" {
			if ids := rs.List(); len(ids) > 0 {
				mr.Replicas = []ReplicaAd{{URL: self, JobIDs: ids}}
			}
		}
	}
	return mr
}

// peerMembers serves GET /peer/members: the member table, self first —
// the relay half of one-hop gossip, and the call peers probe this
// daemon's liveness with each cycle.
func (h *handler) peerMembers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.gossipPayload())
}

// receiveReplica serves POST /peer/replicas/{id}: a leader pushing one
// finished job's immutable artifacts. The body is one ReplicaManifest
// line, then the full canonical checkpoint, then (for trajectory specs)
// the full sidecar. Nothing lands unverified (VerifyReplica): the spec
// must hash to the job ID and the manifest kernel, and every line must be
// the record of its grid position, framed as the leader's writer frames
// it — what is stored is what was verified, byte for byte. The manifest
// generation is the zombie guard: a push from a deposed leader (lower
// generation than the stored copy's) answers 409 and changes nothing.
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
	var head, rest []byte
	for line, end := range ncgio.Lines(body) {
		head, rest = line, body[end:]
		break
	}
	var m store.ReplicaManifest
	if err := json.Unmarshal(head, &m); err != nil { // a body without a whole line has no head
		writeError(w, http.StatusBadRequest, "bad replica manifest line: "+err.Error())
		return
	}
	checkpoint, trajectory, err := VerifyReplica(id, m, rest)
	if err != nil {
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
	m.StoredAt = Time().Now()
	if err := rs.Put(m, checkpoint, trajectory); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	h.replicasReceived.Add(1)
	h.replicaBytesReceived.Add(uint64(len(body)))
	writeJSON(w, http.StatusOK, map[string]any{"stored": true, "held": true})
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
	if !decodeJSON(w, r, 1<<20, "lease", &req) {
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

	// The lease computes on its own goroutine while this one keeps the
	// stream alive; the handler returns only after the lease does, so
	// nothing touches the ResponseWriter once it has.
	ka := &keepAlive{w: w, lastByte: Time().Now()}
	served := make(chan error, 1)
	go func() {
		served <- h.m.ServeLease(r.Context(), sp, req.Start, req.End, func(line []byte) error {
			err := ka.send(&net.Buffers{line, []byte("\n")})
			if err == nil {
				h.leaseCellsServed.Add(1)
			}
			return err
		})
	}()
	tick, stop := Time().NewTicker(keepAliveInterval)
	defer stop()
	for {
		select {
		case err := <-served:
			if err == nil {
				h.leasesServed.Add(1)
			}
			return
		case <-tick:
			ka.beat() //nolint:errcheck // a gone client fails the lease's next send
		}
	}
}
