package sweepd

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ncgio"
	"repro/internal/sweepd/store"
)

// VerifyReplica checks one incoming replica push against the job
// identity it claims and cuts it into the two files it is stored as. The
// manifest's spec must hash to the URL's job ID and the manifest's
// kernel, the job must be done, and body — what follows the manifest
// line — must be the COMPLETE checkpoint (one record per grid cell, in
// canonical cell order), then for trajectory specs the complete sidecar,
// and nothing else: no padding, no blank line, no torn tail. One pass
// finds where the checkpoint ends (after NumCells canonical records) and
// judges both halves, validating each line once. What passes is stored
// byte for byte, so a replica is served, and adoption seeded from it, with
// the trust of a locally computed checkpoint: the line codec decodes
// canonical bytes only, so every stored line is the encoding of the cell
// it records.
func VerifyReplica(id string, m store.ReplicaManifest, body []byte) (checkpoint, trajectory []byte, err error) {
	fail := func(format string, args ...any) ([]byte, []byte, error) {
		return nil, nil, fmt.Errorf("sweepd: replica of job %s: "+format, append([]any{id}, args...)...)
	}
	if m.JobID != id {
		return fail("manifest names job %q", m.JobID)
	}
	if m.Status != string(StatusDone) {
		return fail("non-terminal status %q; only done jobs replicate", m.Status)
	}
	sp, err := decodeSpec(m.Spec)
	if err != nil {
		return fail("invalid spec: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return fail("invalid spec: %w", err)
	}
	if sp.ID() != id {
		return fail("spec hashes to job %s", sp.ID())
	}
	if kh := sp.KernelHash(); m.Kernel != kh {
		return fail("manifest kernel %q does not match spec kernel %q", m.Kernel, kh)
	}
	end, err := sp.canonicalPrefix(body, ncgio.UnmarshalCell)
	if err != nil {
		return fail("checkpoint: %w", err)
	}
	checkpoint, trajectory = body[:end], body[end:]
	rest := trajectory
	if sp.Trajectories {
		if end, err = sp.canonicalPrefix(trajectory, trajectoryCell); err != nil {
			return fail("sidecar: %w", err)
		}
		rest = trajectory[end:]
	}
	if len(rest) > 0 {
		return fail("%d bytes follow the last record", len(rest))
	}
	return checkpoint, trajectory, nil
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

// Replicator pushes each finished job's immutable artifacts (spec,
// lifecycle record, checkpoint, trajectory sidecar) to the least-loaded
// alive members, so results survive the leader's disk and reads fan out
// across the mesh. Register JobFinished as a Manager.OnFinish hook;
// pushes run asynchronously and Close cancels the running ones. The
// deficit-based target choice makes re-fires idempotent and cheap: a job
// already held by Fanout alive members (or with no member to push to)
// pushes nothing and reads nothing, so Resume re-announcing finished jobs
// after a restart heals under-replication without duplicating bytes.
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
}

// NewReplicator builds a replicator over the options.
func NewReplicator(opts ReplicatorOptions) *Replicator {
	if opts.Fanout <= 0 {
		opts.Fanout = 2
	}
	rp := &Replicator{opts: opts}
	rp.ctx, rp.cancel = context.WithCancel(context.Background())
	return rp
}

// JobFinished is the Manager.OnFinish hook: push the job's artifacts in
// the background (terminal-but-not-done jobs are skipped — canceled and
// failed checkpoints are partial, hence still mutable under resume).
func (rp *Replicator) JobFinished(job Job) {
	if job.Status != StatusDone {
		return
	}
	rp.mu.Lock()
	if rp.closed {
		rp.mu.Unlock()
		return
	}
	rp.wg.Add(1)
	rp.mu.Unlock()
	go func() {
		defer rp.wg.Done()
		if err := rp.Replicate(job); err != nil {
			slog.Warn("sweepd: replication failed", "job", job.ID, "err", err)
		}
	}()
}

// Replicate synchronously pushes the job's artifacts to enough
// least-loaded alive members to reach the configured fanout, skipping
// members that already hold a replica. Failed targets are skipped in
// favor of the next candidate; the residual deficit (if any) heals on
// the next finish re-fire (daemon restart) rather than blocking here.
// With no member to push to — a lone daemon — it does nothing and says
// nothing: that deficit is the deployment's, not the job's.
func (rp *Replicator) Replicate(job Job) error {
	if job.Status != StatusDone {
		return nil
	}
	id := job.ID
	holders := map[string]bool{}
	if rp.opts.Holders != nil {
		for _, u := range rp.opts.Holders(id) {
			holders[u] = true
		}
	}
	need := rp.opts.Fanout - len(holders)
	if need <= 0 {
		return nil
	}
	self := ""
	if rp.opts.Self != nil {
		self = rp.opts.Self()
	}
	var cands []MemberLoad
	for _, ml := range rp.opts.Targets() {
		if ml.URL == self || holders[ml.URL] {
			continue
		}
		cands = append(cands, ml)
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Load != cands[j].Load {
			return cands[i].Load.Less(cands[j].Load)
		}
		return cands[i].URL < cands[j].URL
	})
	body, err := rp.buildBody(job)
	if err != nil {
		return err
	}

	var firstErr error
	for _, ml := range cands {
		if need <= 0 {
			break
		}
		if err := rp.push(ml.URL, id, body); err != nil {
			rp.pushFailures.Add(1)
			slog.Warn("sweepd: replica push failed", "job", id, "member", ml.URL, "err", err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		rp.pushed.Add(1)
		rp.bytesPushed.Add(uint64(len(body)))
		need--
	}
	if need > 0 && firstErr != nil {
		return firstErr
	}
	if need > 0 {
		slog.Warn("sweepd: job under-replicated", "job", id, "placed", rp.opts.Fanout-need, "fanout", rp.opts.Fanout)
	}
	return nil
}

// readGrid reads the whole lines of a done job's checkpoint or sidecar:
// one record per grid cell by definition, so any other line count (none is
// decoded) means the job was evicted, or its file damaged, since — don't
// ship it.
func readGrid(path string, total int) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	got, whole := 0, 0
	for _, end := range ncgio.Lines(data) {
		got, whole = got+1, end
	}
	if got != total {
		return nil, fmt.Errorf("%s has %d complete lines, grid has %d cells", path, got, total)
	}
	return data[:whole], nil
}

// buildBody assembles the wire body of POST /peer/replicas/{id}: one
// manifest line, then the full checkpoint, then the full sidecar.
func (rp *Replicator) buildBody(job Job) ([]byte, error) {
	id, sp := job.ID, job.Spec
	checkpoint, err := readGrid(rp.opts.Store.ResultsPath(id), sp.NumCells())
	var trajectory []byte
	if err == nil && sp.Trajectories {
		trajectory, err = readGrid(rp.opts.Store.TrajectoryPath(id), sp.NumCells())
	}
	if err != nil {
		return nil, fmt.Errorf("sweepd: replicating job %s: %w", id, err)
	}
	specJSON, err := json.Marshal(sp)
	if err != nil {
		return nil, fmt.Errorf("sweepd: %w", err)
	}
	gen := uint64(1)
	if rp.opts.Generation != nil {
		if g := rp.opts.Generation(id); g > 0 {
			gen = g
		}
	}
	manifest := store.ReplicaManifest{
		JobID:      id,
		Kernel:     sp.KernelHash(),
		Generation: gen,
		Status:     string(StatusDone),
		Spec:       specJSON,
		Created:    job.Created,
		Finished:   job.Finished,
	}
	head, err := json.Marshal(manifest)
	if err != nil {
		return nil, fmt.Errorf("sweepd: %w", err)
	}
	body := make([]byte, 0, len(head)+1+len(checkpoint)+len(trajectory))
	body = append(body, head...)
	body = append(body, '\n')
	body = append(body, checkpoint...)
	body = append(body, trajectory...)
	return body, nil
}

// push POSTs one replica body to a member; any non-2xx answer is a
// failure (the handler answers 200 for an idempotent same-generation
// repush too). A 429 from the receiver's -replica-rate class is waited
// out rather than counted: the deficit would otherwise stay until the
// next restart re-fires the finish hook.
func (rp *Replicator) push(base, id string, body []byte) error {
	ctx, cancel := context.WithTimeout(rp.ctx, PeerCallTimeout)
	defer cancel()
	resp, err := Peer.Do(ctx, http.MethodPost, base+"/peer/replicas/"+id, "application/x-ndjson", body, PeerCallTimeout, nil)
	if err != nil {
		return err
	}
	discard(resp)
	return nil
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
