package sweepd

import (
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/ncgio"
)

// replicaJob reconstructs a Job snapshot from a locally held replica of
// a finished job this manager never ran: the read-fan-out view. The
// snapshot is marked Replica so clients can tell it from the leader's. A
// running job's replica — the tails its leader pushed so far — is not
// served: its reads are the leader's until the done push lands.
func (h *handler) replicaJob(id string) (Job, bool) {
	rs := h.m.Replicas()
	if rs == nil {
		return Job{}, false
	}
	m, err := rs.Manifest(id)
	if err != nil || m.JobID != id || m.Status == string(StatusRunning) {
		return Job{}, false
	}
	sp, err := decodeSpec(m.Spec)
	if err != nil {
		return Job{}, false
	}
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
// table (or, failing that, the lease table) says has it. The redirected
// URL carries hop=1 so a stale table cannot bounce a client around the
// mesh — the second daemon either serves or 404s. Returns false when
// there is nowhere to point (caller 404s).
func (h *handler) redirectRead(w http.ResponseWriter, r *http.Request, id string) bool {
	if r.URL.Query().Get("hop") != "" || h.cluster == nil {
		return false
	}
	self, target := h.cluster.Self(), ""
	if holders := h.cluster.ReplicaHolders(id); len(holders) > 0 {
		target = holders[0]
	}
	if target == "" {
		for _, l := range h.cluster.Leases() {
			if l.JobID == id && l.Owner != self {
				target = l.Owner
				break
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

// etagMatch implements If-None-Match against one strong ETag. The
// comparison is weak (RFC 9110 §13.1.2): W/"x" matches "x".
func etagMatch(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimPrefix(strings.TrimSpace(c), "W/")
		if c == etag || c == "*" {
			return true
		}
	}
	return false
}

// followTick paces how often a follower drains a running job's new
// lines. The end of a job does not wait for it: the status change wakes
// the follower at once.
const followTick = 150 * time.Millisecond

// followResults tails a job's checkpoint until the job reaches a terminal
// status, streaming each newly appended whole line as it lands. The
// terminal status cannot be known when headers go out, so it travels as
// the X-Sweep-Status HTTP trailer instead.
func (h *handler) followResults(w http.ResponseWriter, r *http.Request, id string) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Trailer", "X-Sweep-Status")
	w.WriteHeader(http.StatusOK)

	var f *os.File
	var tail *ncgio.Tailer
	defer func() {
		if f != nil {
			f.Close()
		}
	}()

	ka := &keepAlive{w: w, lastByte: Time().Now()}
	tick, stop := Time().NewTicker(followTick)
	defer stop()
	for {
		// Status before drain: when this snapshot is terminal, every byte
		// the finished runner synced is already on disk, so the drain
		// below yields the complete grid — the stream can never end on a
		// terminal status with bytes missing. changed comes from the same
		// snapshot, so a finish after it still wakes the wait below.
		job, changed, ok := h.m.Watch(id)
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
		for tail != nil {
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
			if err := ka.send(sec); err != nil {
				return // client gone
			}
		}
		if terminal {
			w.Header().Set("X-Sweep-Status", string(job.Status))
			return
		}
		if err := ka.beat(); err != nil {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		case <-tick:
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
	if !job.Spec.Trajectories {
		writeError(w, http.StatusNotFound,
			`sweep did not opt into trajectories (set "trajectories": true in the spec)`)
		return
	}
	path := h.m.TrajectoryPath(id)
	if replica {
		path = h.m.Replicas().TrajectoryPath(id)
		h.replicaReads.Add(1)
	}
	h.serveLinePrefix(w, r, id, path, job)
}
