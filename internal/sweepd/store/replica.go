package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ReplicaManifest identifies one replicated finished job: both the wire
// header of POST /peer/replicas/{id} (first line of the body) and the
// manifest.json persisted next to the replica's artifact files. The
// spec travels as raw JSON so the store stays independent of the sweepd
// spec type; sweepd decodes and verifies it (content address, kernel
// hash, canonical cell order) before a replica is ever stored. The spec
// fixes how many records the body holds, so the manifest does not repeat
// it; manifests that still carry checkpoint_lines and trajectory_lines
// decode, the two fields ignored.
type ReplicaManifest struct {
	// JobID is the job's content address; Kernel its kernel hash. The
	// receiver recomputes both from Spec and rejects mismatches, so a
	// corrupt or mislabeled push can never be served under this ID.
	JobID  string `json:"job_id"`
	Kernel string `json:"kernel"`
	// Generation is the pusher's lease generation for the job — the
	// zombie guard: a replica already stored at a higher generation
	// rejects pushes from older (deposed) leaders.
	Generation uint64 `json:"generation"`
	// Status is the job's terminal status; only "done" jobs replicate
	// (their artifacts are immutable — every cell is checkpointed).
	Status string `json:"status"`
	// Spec is the job's normalized spec, verbatim.
	Spec json.RawMessage `json:"spec"`
	// Created / Finished mirror the leader's lifecycle record so a
	// replica-served job snapshot keeps its timestamps.
	Created  time.Time `json:"created,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// StoredAt is stamped by the RECEIVER when the replica lands — the
	// replica GC clock, deliberately local so expiry never depends on
	// cross-host clock agreement.
	StoredAt time.Time `json:"stored_at,omitzero"`
}

// ReplicaSet stores verified replicas of other members' finished jobs,
// one directory per job ID under its root: manifest.json, results.jsonl
// and (for trajectory specs) trajectory.jsonl. Each replica commits
// atomically — staged in a temp dir, renamed into place — so a crash
// mid-receive leaves no half-replica to serve. A ReplicaSet is safe for
// concurrent use.
type ReplicaSet struct {
	root string
	// mu serializes Put/Delete against each other; reads of a replica's
	// files go straight to the filesystem (directory renames are atomic).
	mu sync.Mutex
	// held is the sorted IDs of the replicas stored here: every liveness
	// probe, /metrics scrape and gossip reply asks for it, so it is kept
	// in memory — seeded by one directory walk at open, then replaced,
	// never modified in place, under mu by whatever Put or Delete did to
	// one ID (noteHeld). List is one atomic load.
	held atomic.Pointer[[]string]
}

// OpenReplicaSet opens (creating if needed) a replica store rooted at
// dir, clearing any staging dirs a crash mid-Put left behind and reading
// which replicas it holds.
func OpenReplicaSet(dir string) (*ReplicaSet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	rs := &ReplicaSet{root: dir}
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	ids := []string{}
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".tmp"):
			os.RemoveAll(filepath.Join(dir, e.Name())) //nolint:errcheck // best-effort cleanup
		case e.IsDir() && jobIDPattern.MatchString(e.Name()) && rs.hasManifest(e.Name()):
			ids = append(ids, e.Name())
		}
	}
	rs.held.Store(&ids)
	return rs, nil
}

func (rs *ReplicaSet) dir(id string) string { return filepath.Join(rs.root, id) }

// manifestPath returns the replica's manifest path.
func (rs *ReplicaSet) manifestPath(id string) string {
	return filepath.Join(rs.dir(id), "manifest.json")
}

// ResultsPath returns the replica's checkpoint file path.
func (rs *ReplicaSet) ResultsPath(id string) string {
	return filepath.Join(rs.dir(id), "results.jsonl")
}

// TrajectoryPath returns the replica's trajectory sidecar path (absent
// unless the spec collected trajectories).
func (rs *ReplicaSet) TrajectoryPath(id string) string {
	return filepath.Join(rs.dir(id), "trajectory.jsonl")
}

// Put stores one verified replica atomically, replacing any existing
// copy (callers enforce the generation guard first). trajectory may be
// nil for specs without a sidecar.
func (rs *ReplicaSet) Put(m ReplicaManifest, checkpoint, trajectory []byte) error {
	if m.JobID == "" || !jobIDPattern.MatchString(m.JobID) {
		return fmt.Errorf("store: replica manifest has invalid job id %q", m.JobID)
	}
	mdata, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	defer rs.noteHeld(m.JobID)
	tmp := rs.dir(m.JobID) + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	cleanup := func(err error) error {
		os.RemoveAll(tmp) //nolint:errcheck // best-effort
		return fmt.Errorf("store: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "results.jsonl"), checkpoint, 0o644); err != nil {
		return cleanup(err)
	}
	if len(trajectory) > 0 {
		if err := os.WriteFile(filepath.Join(tmp, "trajectory.jsonl"), trajectory, 0o644); err != nil {
			return cleanup(err)
		}
	}
	if err := os.WriteFile(filepath.Join(tmp, "manifest.json"), append(mdata, '\n'), 0o644); err != nil {
		return cleanup(err)
	}
	if err := os.RemoveAll(rs.dir(m.JobID)); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmp, rs.dir(m.JobID)); err != nil {
		return cleanup(err)
	}
	return nil
}

// Manifest reads a replica's manifest back; os.IsNotExist(err) means no
// replica of that job is stored here. Readers ask it first, with an id
// from a URL or a peer's lease: one that is not a content address is
// refused before it joins a path.
func (rs *ReplicaSet) Manifest(id string) (ReplicaManifest, error) {
	if !jobIDPattern.MatchString(id) {
		return ReplicaManifest{}, fmt.Errorf("store: invalid replica job id %q", id)
	}
	data, err := os.ReadFile(rs.manifestPath(id))
	if err != nil {
		return ReplicaManifest{}, err
	}
	var m ReplicaManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return ReplicaManifest{}, fmt.Errorf("store: replica %s: %w", id, err)
	}
	return m, nil
}

// List returns the IDs of all stored replicas, sorted. The slice is
// shared with later calls: read it, do not write to it.
func (rs *ReplicaSet) List() []string { return *rs.held.Load() }

// hasManifest reports whether a complete replica of id is on disk: its
// directory is renamed into place with the manifest inside.
func (rs *ReplicaSet) hasManifest(id string) bool {
	_, err := os.Stat(rs.manifestPath(id))
	return err == nil
}

// noteHeld brings id's membership in the held set in line with the disk
// after a write that may have changed it, however that write ended (a Put
// that failed after removing the old copy holds nothing). Called with mu
// held.
func (rs *ReplicaSet) noteHeld(id string) {
	ids := *rs.held.Load()
	i, listed := slices.BinarySearch(ids, id)
	switch stored := rs.hasManifest(id); {
	case stored && !listed:
		ids = slices.Insert(slices.Clone(ids), i, id)
	case !stored && listed:
		ids = slices.Delete(slices.Clone(ids), i, i+1)
	default:
		return
	}
	rs.held.Store(&ids)
}

// Delete removes one replica.
func (rs *ReplicaSet) Delete(id string) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	defer rs.noteHeld(id)
	if err := os.RemoveAll(rs.dir(id)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// SweepExpired removes replicas stored before cutoff — the replica half
// of TTL GC, so replicated checkpoints cannot accumulate forever on
// members that never ran the job — and reports the IDs it removed. A
// replica whose manifest is unreadable falls back to the directory's
// modtime.
func (rs *ReplicaSet) SweepExpired(cutoff time.Time) (removed []string, err error) {
	for _, id := range rs.List() {
		var stored time.Time
		if m, merr := rs.Manifest(id); merr == nil {
			stored = m.StoredAt
		}
		if stored.IsZero() {
			if fi, serr := os.Stat(rs.dir(id)); serr == nil {
				stored = fi.ModTime()
			}
		}
		if stored.IsZero() || !stored.Before(cutoff) {
			continue
		}
		if derr := rs.Delete(id); derr != nil {
			if err == nil {
				err = derr
			}
			continue
		}
		removed = append(removed, id)
	}
	return removed, err
}
