package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ncgio"
	"repro/internal/sweepd/store"
)

// VerifyReplica checks one incoming replica push against the job
// identity it claims: the manifest's spec must hash to the URL's job ID
// and the manifest's kernel, the job must be done, and the body must be
// the COMPLETE canonical checkpoint (one valid cell line per grid cell,
// in canonical cell order) plus, for trajectory specs, the complete
// sidecar. Verification means a replica can be served (and adoption
// seeded from it) with exactly the trust of a locally computed
// checkpoint — a corrupt, truncated, or mislabeled push never lands.
// It returns the decoded spec for the caller's manifest bookkeeping.
func VerifyReplica(id string, m store.ReplicaManifest, checkpoint, trajectory []byte) (Spec, error) {
	if m.JobID != id {
		return Spec{}, fmt.Errorf("sweepd: replica manifest job id %q does not match %q", m.JobID, id)
	}
	if m.Status != string(StatusDone) {
		return Spec{}, fmt.Errorf("sweepd: replica of job %s has non-terminal status %q; only done jobs replicate", id, m.Status)
	}
	var sp Spec
	if err := json.Unmarshal(m.Spec, &sp); err != nil {
		return Spec{}, fmt.Errorf("sweepd: replica of job %s: invalid spec: %w", id, err)
	}
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		return Spec{}, fmt.Errorf("sweepd: replica of job %s: invalid spec: %w", id, err)
	}
	if sp.ID() != id {
		return Spec{}, fmt.Errorf("sweepd: replica spec hashes to job %s, not %s", sp.ID(), id)
	}
	if kh := sp.KernelHash(); m.Kernel != kh {
		return Spec{}, fmt.Errorf("sweepd: replica of job %s: manifest kernel %q does not match spec kernel %q", id, m.Kernel, kh)
	}
	total := sp.NumCells()
	if m.CheckpointLines != total {
		return Spec{}, fmt.Errorf("sweepd: replica of job %s: manifest frames %d checkpoint lines, grid has %d cells", id, m.CheckpointLines, total)
	}
	ckLines := splitRecordLines(checkpoint)
	if len(ckLines) != total {
		return Spec{}, fmt.Errorf("sweepd: replica of job %s: checkpoint has %d complete lines, grid has %d cells", id, len(ckLines), total)
	}
	for i, line := range ckLines {
		rec, err := ncgio.UnmarshalCellResult(line)
		if err != nil {
			return Spec{}, fmt.Errorf("sweepd: replica of job %s: checkpoint line %d: %w", id, i, err)
		}
		if want := sp.CellsRange(i, i+1)[0]; rec.Cell != want {
			return Spec{}, fmt.Errorf("sweepd: replica of job %s: checkpoint line %d is cell %+v, canonical order wants %+v", id, i, rec.Cell, want)
		}
	}
	wantTraj := 0
	if sp.Trajectories {
		wantTraj = total
	}
	if m.TrajectoryLines != wantTraj {
		return Spec{}, fmt.Errorf("sweepd: replica of job %s: manifest frames %d trajectory lines, want %d", id, m.TrajectoryLines, wantTraj)
	}
	trLines := splitRecordLines(trajectory)
	if len(trLines) != wantTraj {
		return Spec{}, fmt.Errorf("sweepd: replica of job %s: sidecar has %d complete lines, want %d", id, len(trLines), wantTraj)
	}
	for i, line := range trLines {
		trec, err := ncgio.UnmarshalTrajectory(line)
		if err != nil {
			return Spec{}, fmt.Errorf("sweepd: replica of job %s: trajectory line %d: %w", id, i, err)
		}
		if want := sp.CellsRange(i, i+1)[0]; trec.Cell() != want {
			return Spec{}, fmt.Errorf("sweepd: replica of job %s: trajectory line %d is cell %+v, canonical order wants %+v", id, i, trec.Cell(), want)
		}
	}
	return sp, nil
}

// splitRecordLines splits checkpoint-format bytes into complete
// (newline-terminated) non-blank lines; a torn tail is dropped, same
// contract as ncgio's readers.
func splitRecordLines(data []byte) [][]byte {
	var out [][]byte
	for {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return out // torn or empty tail: nothing provably whole
		}
		line := bytes.TrimSpace(data[:nl])
		data = data[nl+1:]
		if len(line) > 0 {
			out = append(out, line)
		}
	}
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
	// Logf receives replication diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// Replicator pushes each finished job's immutable artifacts (spec,
// lifecycle record, checkpoint, trajectory sidecar) to the least-loaded
// alive members, so results survive the leader's disk and reads fan out
// across the mesh. Register JobFinished as a Manager.OnFinish hook;
// pushes run asynchronously and Close waits for in-flight ones. The
// deficit-based target choice makes re-fires idempotent: a job already
// held by Fanout alive members pushes nothing, so Resume re-announcing
// finished jobs after a restart heals under-replication without
// duplicating bytes.
type Replicator struct {
	opts ReplicatorOptions

	pushed       atomic.Uint64
	pushFailures atomic.Uint64
	bytesPushed  atomic.Uint64

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// NewReplicator builds a replicator over the options.
func NewReplicator(opts ReplicatorOptions) *Replicator {
	if opts.Fanout <= 0 {
		opts.Fanout = 2
	}
	return &Replicator{opts: opts}
}

func (rp *Replicator) logf(format string, args ...any) {
	if rp.opts.Logf != nil {
		rp.opts.Logf(format, args...)
	}
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
			rp.logf("sweepd: replicating job %s: %v", job.ID, err)
		}
	}()
}

// Replicate synchronously pushes the job's artifacts to enough
// least-loaded alive members to reach the configured fanout, skipping
// members that already hold a replica. Failed targets are skipped in
// favor of the next candidate; the residual deficit (if any) heals on
// the next finish re-fire (daemon restart) rather than blocking here.
func (rp *Replicator) Replicate(job Job) error {
	if job.Status != StatusDone {
		return nil
	}
	id := job.ID
	body, n, err := rp.buildBody(job)
	if err != nil {
		return err
	}

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
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Load != cands[j].Load {
			return cands[i].Load.Less(cands[j].Load)
		}
		return cands[i].URL < cands[j].URL
	})

	var firstErr error
	for _, ml := range cands {
		if need <= 0 {
			break
		}
		if err := rp.push(ml.URL, id, body); err != nil {
			rp.pushFailures.Add(1)
			rp.logf("sweepd: replica push of job %s to %s failed: %v", id, ml.URL, err)
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
		rp.logf("sweepd: job %s under-replicated: %d of %d copies placed (%d cells)", id, rp.opts.Fanout-need, rp.opts.Fanout, n)
	}
	return nil
}

// buildBody assembles the wire body of POST /peer/replicas/{id}: one
// manifest line, then the full checkpoint, then the full sidecar.
func (rp *Replicator) buildBody(job Job) ([]byte, int, error) {
	id, sp := job.ID, job.Spec
	checkpoint, err := os.ReadFile(rp.opts.Store.ResultsPath(id))
	if err != nil {
		return nil, 0, fmt.Errorf("sweepd: replicating job %s: %w", id, err)
	}
	total := sp.NumCells()
	if got := len(splitRecordLines(checkpoint)); got != total {
		// A done job's checkpoint is the full canonical grid by
		// definition; anything else means the job was evicted (or its
		// file damaged) between finish and this push — don't ship it.
		return nil, 0, fmt.Errorf("sweepd: replicating job %s: checkpoint has %d complete lines, grid has %d cells", id, got, total)
	}
	var trajectory []byte
	trajLines := 0
	if sp.Trajectories {
		trajectory, err = os.ReadFile(rp.opts.Store.TrajectoryPath(id))
		if err != nil {
			return nil, 0, fmt.Errorf("sweepd: replicating job %s: %w", id, err)
		}
		trajLines = len(splitRecordLines(trajectory))
		if trajLines != total {
			return nil, 0, fmt.Errorf("sweepd: replicating job %s: sidecar has %d complete lines, grid has %d cells", id, trajLines, total)
		}
	}
	specJSON, err := json.Marshal(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("sweepd: %w", err)
	}
	gen := uint64(1)
	if rp.opts.Generation != nil {
		if g := rp.opts.Generation(id); g > 0 {
			gen = g
		}
	}
	manifest := store.ReplicaManifest{
		JobID:           id,
		Kernel:          sp.KernelHash(),
		Generation:      gen,
		Status:          string(StatusDone),
		CheckpointLines: total,
		TrajectoryLines: trajLines,
		Spec:            specJSON,
		Created:         job.Created,
		Finished:        job.Finished,
	}
	head, err := json.Marshal(manifest)
	if err != nil {
		return nil, 0, fmt.Errorf("sweepd: %w", err)
	}
	body := make([]byte, 0, len(head)+1+len(checkpoint)+len(trajectory))
	body = append(body, head...)
	body = append(body, '\n')
	body = append(body, checkpoint...)
	if len(checkpoint) > 0 && checkpoint[len(checkpoint)-1] != '\n' {
		body = append(body, '\n')
	}
	body = append(body, trajectory...)
	return body, total, nil
}

// push POSTs one replica body to a member; any non-2xx answer is a
// failure (the handler answers 200 for an idempotent same-generation
// repush too). A 429 from the receiver's -replica-rate class is waited
// out rather than counted: the deficit would otherwise stay until the
// next restart re-fires the finish hook.
func (rp *Replicator) push(base, id string, body []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), PeerCallTimeout)
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

// Close stops accepting new pushes and waits for in-flight ones.
func (rp *Replicator) Close() {
	rp.mu.Lock()
	rp.closed = true
	rp.mu.Unlock()
	rp.wg.Wait()
}
