package sweepd

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
	"repro/internal/sweepd/store"
)

// VerifyReplica judges one replica push against the job identity it
// claims and cur, the stored manifest of what the holder has of the job
// (zero when it has none), and cuts body, what follows the manifest line,
// into the bytes it writes to the checkpoint and the sidecar. The spec must
// hash to the URL's job ID and the manifest's kernel, and the job must be
// running or done. Each file's part starts where the stored file ends,
// extending it (judged from the stored record count on, so the stored
// prefix is not decoded again), or at 0, replacing it. body must be the
// checkpoint's records in canonical cell order, then for trajectory specs
// the sidecar's, and nothing else: no padding, no blank line, no torn
// tail, no record past the grid; a done push must complete both files.
// What passes is written byte for byte, so a replica is served, and
// adoption seeded from it, with the trust of a locally computed
// checkpoint: the line codec decodes canonical bytes only.
func VerifyReplica(id string, m, cur store.ReplicaManifest, body []byte) (checkpoint, trajectory []byte, err error) {
	fail := func(format string, args ...any) ([]byte, []byte, error) {
		return nil, nil, fmt.Errorf("sweepd: replica of job %s: "+format, append([]any{id}, args...)...)
	}
	if m.JobID != id {
		return fail("manifest names job %q", m.JobID)
	}
	done := m.Status == string(StatusDone)
	if !done && m.Status != string(StatusRunning) {
		return fail("status %q; only running and done jobs replicate", m.Status)
	}
	sp, err := decodeSpec(m.Spec)
	if err == nil {
		err = sp.Validate()
	}
	if err != nil {
		return fail("invalid spec: %w", err)
	}
	if sp.ID() != id {
		return fail("spec hashes to job %s", sp.ID())
	}
	if kh := sp.KernelHash(); m.Kernel != kh {
		return fail("manifest kernel %q does not match spec kernel %q", m.Kernel, kh)
	}
	var files [2][]byte
	rest := body
	for i, cellOf := range []func([]byte) (dynamics.Cell, error){ncgio.UnmarshalCell, trajectoryCell} {
		name, first := [2]string{"checkpoint", "sidecar"}[i], 0
		from, held := [2]int64{m.CheckpointFrom, m.TrajectoryFrom}[i], [2]int64{cur.CheckpointFrom, cur.TrajectoryFrom}[i]
		if from != 0 && from != held {
			return fail("%s push starts at byte %d; the replica holds %d", name, from, held)
		} else if from != 0 {
			first = cur.Records[i]
		}
		if i == 1 && !sp.Trajectories {
			break
		}
		end, err := sp.canonicalPrefix(rest, first, cellOf)
		if err != nil && done {
			return fail("%s: %w", name, err)
		}
		files[i], rest = rest[:end], rest[end:]
	}
	if len(rest) > 0 {
		return fail("%d bytes follow the last record", len(rest))
	}
	return files[0], files[1], nil
}

// ReplicatorOptions wires a Replicator into the daemon.
type ReplicatorOptions struct {
	// Store is where the finished jobs' primary artifacts live.
	Store *Store
	// Fanout is how many members (besides the leader) should hold a copy
	// of each finished job; ≤ 0 defaults to 2.
	Fanout int
	// Self returns this daemon's advertise URL (never pushed to).
	Self func() string
	// Targets returns the alive members and their load snapshots;
	// replicas go to the least-loaded ones first.
	Targets func() []MemberLoad
	// Holders returns the alive members already advertising a replica of
	// the job (the deficit — Fanout minus these — is what gets pushed).
	// Nil means "assume none".
	Holders func(jobID string) []string
	// Generation returns the job's current lease generation for the
	// manifest's zombie guard; nil or 0 defaults to 1 (never-adopted).
	Generation func(jobID string) uint64
}

// Replicator pushes each job's checkpoint and sidecar to the least-loaded
// alive members, so results survive the leader's disk and reads fan out
// across the mesh: at each scheduler heartbeat (Manager.Heartbeat) the
// lines a running job appended since its last push, and once it is done
// the last ones, which make each copy a served replica. Register
// JobFinished as a Manager.OnFinish hook; pushes run asynchronously and
// Close cancels the running ones. A done job already held by Fanout alive
// members (or with no member to push to) pushes nothing and reads nothing,
// so Resume re-announcing finished jobs after a restart heals
// under-replication without duplicating bytes.
type Replicator struct {
	opts ReplicatorOptions

	pushed       atomic.Uint64
	pushFailures atomic.Uint64
	bytesPushed  atomic.Uint64

	// ctx is the replicator's lifetime: Close cancels it, which ends every
	// running push, so Close never waits on a black-holed member.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
	tails  map[string]*tails // by job, while it runs
}

// tails is where a job's pushes stand: the members in to store its
// checkpoint and sidecar up to at. The lock keeps one push of the job on
// its way.
type tails struct {
	sync.Mutex
	at [2]int64
	to map[string]bool
}

// NewReplicator builds a replicator over the options.
func NewReplicator(opts ReplicatorOptions) *Replicator {
	if opts.Fanout <= 0 {
		opts.Fanout = 2
	}
	rp := &Replicator{opts: opts, tails: make(map[string]*tails)}
	rp.ctx, rp.cancel = context.WithCancel(context.Background())
	return rp
}

// JobFinished is the Manager.OnFinish hook, which Manager.Heartbeat fires
// with running snapshots too: push the job's new bytes in the background.
// Canceled and failed jobs push nothing: their checkpoints are partial,
// hence still mutable under resume.
func (rp *Replicator) JobFinished(job Job) {
	rp.mu.Lock()
	if rp.closed {
		rp.mu.Unlock()
		return
	}
	rp.wg.Add(1)
	rp.mu.Unlock()
	go func() {
		defer rp.wg.Done()
		if err := rp.replicate(job); err != nil {
			slog.Warn("sweepd: replication failed", "job", job.ID, "status", job.Status, "err", err)
		}
	}()
}

// replicate pushes what the job's fanout lacks: to the members that hold
// its earlier tails first, the bytes past them, then to the least-loaded
// others, from the start. A running job skips a heartbeat while its last
// push is on its way, and a done job waits for it; members advertising the
// done replica count against the fanout. Failed targets are skipped for
// the next candidate, and are pushed to from the start next time; a done
// job's residual deficit heals on the next finish re-fire (daemon
// restart). With no member to push to — a lone daemon — it does nothing
// and says nothing: that deficit is the deployment's, not the job's.
func (rp *Replicator) replicate(job Job) error {
	id, running := job.ID, job.Status == StatusRunning
	skip := map[string]bool{} // the holders, then this daemon
	if rp.opts.Holders != nil {
		for _, u := range rp.opts.Holders(id) {
			skip[u] = true
		}
	}
	need := rp.opts.Fanout - len(skip)
	if (!running && job.Status != StatusDone) || need <= 0 {
		rp.drop(id, nil)
		return nil
	}
	rp.mu.Lock()
	t := rp.tails[id]
	if t == nil {
		t = &tails{}
		rp.tails[id] = t
	}
	rp.mu.Unlock()
	if !running {
		t.Lock()
	} else if !t.TryLock() {
		return nil
	}
	defer t.Unlock()
	if rp.opts.Self != nil {
		skip[rp.opts.Self()] = true
	}
	var cands []MemberLoad
	kept := 0
	for _, ml := range rp.opts.Targets() {
		if !skip[ml.URL] {
			cands = append(cands, ml)
			if t.to[ml.URL] {
				kept++
			}
		}
	}
	if len(cands) == 0 {
		rp.drop(id, t)
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if ti, tj := t.to[cands[i].URL], t.to[cands[j].URL]; ti != tj {
			return ti
		}
		if cands[i].Load != cands[j].Load {
			return cands[i].Load.Less(cands[j].Load)
		}
		return cands[i].URL < cands[j].URL
	})
	// One read serves every member, so they all end where it does: it
	// starts where the job's members stand, or at the start when another
	// member is to be pushed to (any candidate may be, for a done job).
	from := t.at
	if kept < min(need, len(cands)) || (!running && kept < len(cands)) {
		from = [2]int64{}
	}
	data, err := rp.readTails(job, from)
	if err != nil {
		return err
	}
	to, finished := map[string]bool{}, !running
	var firstErr error
	for _, ml := range cands {
		if need <= 0 {
			break
		}
		at := [2]int64{}
		if t.to[ml.URL] {
			at = t.at
		} else if from != at {
			continue // read past its start: the next heartbeat pushes to it
		}
		var part [2][]byte
		for i := range part {
			part[i] = data[i][min(at[i]-from[i], int64(len(data[i]))):]
		}
		held := false
		if !running || len(part[0])+len(part[1]) > 0 {
			held, err = rp.push(ml.URL, job, at, part)
		}
		if err != nil {
			rp.pushFailures.Add(1)
			slog.Warn("sweepd: replica push failed", "job", id, "member", ml.URL, "err", err)
			firstErr = cmp.Or(firstErr, err)
			continue
		}
		to[ml.URL], finished = true, finished || held // held: a late running snapshot of a job pushed done
		need--
	}
	t.at, t.to = [2]int64{from[0] + int64(len(data[0])), from[1] + int64(len(data[1]))}, to
	if finished || len(to) == 0 {
		rp.drop(id, t)
	}
	if need > 0 && firstErr != nil {
		return firstErr
	}
	if need > 0 && !running {
		slog.Warn("sweepd: job under-replicated", "job", id, "placed", rp.opts.Fanout-need, "fanout", rp.opts.Fanout)
	}
	return nil
}

// drop forgets where the job's pushes stand (only t's, when t is set).
func (rp *Replicator) drop(id string, t *tails) {
	rp.mu.Lock()
	if t == nil || rp.tails[id] == t {
		delete(rp.tails, id)
	}
	rp.mu.Unlock()
}

// readTails reads the whole lines of the job's checkpoint and sidecar past
// bytes from[0] and from[1]; a missing file has none.
func (rp *Replicator) readTails(job Job, from [2]int64) (data [2][]byte, err error) {
	for i, path := range []string{rp.opts.Store.ResultsPath(job.ID), rp.opts.Store.TrajectoryPath(job.ID)} {
		if i == 1 && !job.Spec.Trajectories {
			break
		}
		f, err := os.Open(path)
		if os.IsNotExist(err) {
			continue
		} else if err == nil {
			data[i], err = io.ReadAll(io.NewSectionReader(f, from[i], math.MaxInt64-from[i]))
			f.Close()
		}
		if err != nil {
			return data, fmt.Errorf("sweepd: replicating job %s: %w", job.ID, err)
		}
		whole := 0
		for _, end := range ncgio.Lines(data[i]) {
			whole = end
		}
		data[i] = data[i][:whole]
	}
	return data, nil
}

// buildBody assembles the wire body of POST /peer/replicas/{id}: one
// manifest line naming where each part starts (from), then the
// checkpoint's part and the sidecar's.
func (rp *Replicator) buildBody(job Job, from [2]int64, part [2][]byte) ([]byte, error) {
	specJSON, err := json.Marshal(job.Spec)
	if err != nil {
		return nil, fmt.Errorf("sweepd: %w", err)
	}
	gen := uint64(1)
	if rp.opts.Generation != nil {
		gen = max(gen, rp.opts.Generation(job.ID))
	}
	head, err := json.Marshal(store.ReplicaManifest{
		JobID:          job.ID,
		Kernel:         job.Spec.KernelHash(),
		Generation:     gen,
		Status:         string(job.Status),
		CheckpointFrom: from[0],
		TrajectoryFrom: from[1],
		Spec:           specJSON,
		Created:        job.Created,
		Finished:       job.Finished,
	})
	if err != nil {
		return nil, fmt.Errorf("sweepd: %w", err)
	}
	return slices.Concat(head, []byte{'\n'}, part[0], part[1]), nil
}

// push POSTs a member the job's parts starting at from and returns
// whether the member holds the done replica; any non-2xx answer is a
// failure. A 429 from the receiver's -replica-rate class is waited out
// rather than counted: the deficit would otherwise stay until the next
// restart re-fires the finish hook.
func (rp *Replicator) push(base string, job Job, from [2]int64, part [2][]byte) (held bool, err error) {
	body, err := rp.buildBody(job, from, part)
	if err != nil {
		return false, err
	}
	ctx, cancel := context.WithTimeout(rp.ctx, PeerCallTimeout)
	defer cancel()
	resp, err := Peer.Do(ctx, http.MethodPost, base+"/peer/replicas/"+job.ID, "application/x-ndjson", body, PeerCallTimeout, nil)
	if err != nil {
		return false, err
	}
	defer discard(resp)
	var reply struct {
		Held bool `json:"held"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&reply); err != nil {
		return false, fmt.Errorf("sweepd: replica push to %s: bad answer: %w", base, err)
	}
	if job.Status == StatusDone {
		rp.pushed.Add(1)
	}
	rp.bytesPushed.Add(uint64(len(body)))
	return reply.Held, nil
}

// Stats snapshots the push counters for /healthz and /metrics.
func (rp *Replicator) Stats() ReplicaStats {
	return ReplicaStats{
		Pushed:       rp.pushed.Load(),
		PushFailures: rp.pushFailures.Load(),
		BytesPushed:  rp.bytesPushed.Load(),
	}
}

// Close cancels the running pushes, stops accepting new ones and waits
// for their goroutines to return. A cancelled push's deficit heals on the
// next finish re-fire (Manager.Resume after a restart).
func (rp *Replicator) Close() {
	rp.cancel()
	rp.mu.Lock()
	rp.closed = true
	rp.mu.Unlock()
	rp.wg.Wait()
}
