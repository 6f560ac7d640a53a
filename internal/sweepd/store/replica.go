package store

import (
	"bytes"
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

// ReplicaManifest identifies one replicated job: both the wire header of
// POST /peer/replicas/{id} (first line of the body) and the manifest.json
// persisted next to the replica's artifact files. The spec travels as raw
// JSON so the store stays independent of the sweepd spec type; sweepd
// decodes and verifies it (content address, kernel hash, canonical cell
// order) before a push is ever stored. The spec fixes how many records a
// done replica holds, so the manifest does not repeat it; manifests that
// still carry checkpoint_lines and trajectory_lines decode, the two fields
// ignored.
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
	// Status is the job's status when it was pushed: "running" for a
	// tail, "done" for the push that completes the grid. Only a replica
	// that is not running is held (List): its artifacts are immutable.
	Status string `json:"status"`
	// CheckpointFrom and TrajectoryFrom are where a push's bytes start in
	// the checkpoint and the sidecar. In a stored manifest they are the
	// lengths the holder stores, and Records counts the records in each
	// file: what the holder wrote (Put), never a pusher's word.
	CheckpointFrom int64  `json:"checkpoint_from,omitempty"`
	TrajectoryFrom int64  `json:"trajectory_from,omitempty"`
	Records        [2]int `json:"records,omitzero"`
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

// ReplicaSet stores verified replicas of other members' jobs, one
// directory per job ID under its root: manifest.json, results.jsonl and
// (for trajectory specs) trajectory.jsonl. A running job's replica grows
// by the tails its leader pushes; the push that completes the grid makes
// it done, and only then held. A ReplicaSet is safe for concurrent use.
type ReplicaSet struct {
	root string
	// mu serializes Put/Delete/Take against each other; reads of a replica's
	// files go straight to the filesystem (directory renames are atomic).
	mu sync.Mutex
	// ids is the sorted IDs of the held replicas stored here: every liveness
	// probe, /metrics scrape and gossip reply asks for it, so it is kept
	// in memory — seeded by one directory walk at open, then replaced,
	// never modified in place, under mu by whatever Put or Delete did to
	// one ID (noteHeld). List is one atomic load.
	ids atomic.Pointer[[]string]
}

// OpenReplicaSet opens (creating if needed) a replica store rooted at
// dir, clearing any staging dirs an older build's crash mid-Put left
// behind and reading which replicas it holds.
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
		case e.IsDir() && jobIDPattern.MatchString(e.Name()) && rs.held(e.Name()):
			ids = append(ids, e.Name())
		}
	}
	rs.ids.Store(&ids)
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

// Put stores one verified push: it writes each file's new bytes at m's
// from, cutting what follows (a torn append a crash left), then swaps in
// m with its froms and Records advanced past them. A push that extends a
// file shorter than its from (a replica removed or taken since its
// manifest was read) is refused before anything is written. Callers
// enforce the generation guard and judge the bytes first.
func (rs *ReplicaSet) Put(m ReplicaManifest, checkpoint, trajectory []byte) error {
	if m.JobID == "" || !jobIDPattern.MatchString(m.JobID) {
		return fmt.Errorf("store: replica manifest has invalid job id %q", m.JobID)
	}
	paths := [2]string{rs.ResultsPath(m.JobID), rs.TrajectoryPath(m.JobID)}
	froms := [2]int64{m.CheckpointFrom, m.TrajectoryFrom}
	tails := [2][]byte{checkpoint, trajectory}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for i, path := range paths {
		if fi, err := os.Stat(path); froms[i] > 0 && (err != nil || fi.Size() < froms[i]) {
			return fmt.Errorf("store: %s holds less than its manifest's %d bytes", path, froms[i])
		}
	}
	defer rs.noteHeld(m.JobID)
	err := os.MkdirAll(rs.dir(m.JobID), 0o755)
	for i, path := range paths {
		if err == nil {
			err = extend(path, froms[i], tails[i])
		}
		m.Records[i] += bytes.Count(tails[i], []byte{'\n'})
	}
	m.CheckpointFrom += int64(len(checkpoint))
	m.TrajectoryFrom += int64(len(trajectory))
	var mdata []byte
	if err == nil {
		mdata, err = json.MarshalIndent(m, "", "  ")
	}
	tmp := rs.manifestPath(m.JobID) + ".tmp"
	if err == nil {
		err = os.WriteFile(tmp, append(mdata, '\n'), 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, rs.manifestPath(m.JobID))
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// extend writes tail at byte from of path, which holds at least from
// bytes, and cuts what follows; with neither from nor tail the file goes.
func extend(path string, from int64, tail []byte) error {
	if from == 0 && len(tail) == 0 {
		if err := os.Remove(path); !os.IsNotExist(err) {
			return err
		}
		return nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if err = f.Truncate(from); err == nil {
		_, err = f.WriteAt(tail, from)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Take moves the replica of id into a job's files, its checkpoint to
// checkpoint and its sidecar (if it has one) to sidecar, and removes the
// replica: an adoption's seed. Both paths must be on the replica set's
// file system. It returns the replica's stored manifest, and false when
// no replica of id is stored here or its checkpoint could not be moved.
func (rs *ReplicaSet) Take(id, checkpoint, sidecar string) (ReplicaManifest, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	m, err := rs.Manifest(id)
	if err != nil || m.JobID != id || os.Rename(rs.ResultsPath(id), checkpoint) != nil {
		return ReplicaManifest{}, false
	}
	os.Rename(rs.TrajectoryPath(id), sidecar) //nolint:errcheck // absent unless the spec collected trajectories
	os.RemoveAll(rs.dir(id))                  //nolint:errcheck // what is left has no checkpoint; TTL GC sweeps it
	rs.noteHeld(id)
	return m, true
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

// List returns the IDs of the held replicas stored here, sorted. The
// slice is shared with later calls: read it, do not write to it.
func (rs *ReplicaSet) List() []string { return *rs.ids.Load() }

// held reports whether a held replica of id is on disk: it has a
// manifest, and the manifest does not say the job is still running.
func (rs *ReplicaSet) held(id string) bool {
	m, err := rs.Manifest(id)
	return err == nil && m.Status != "running"
}

// noteHeld brings id's membership in the held set in line with the disk
// after a write that may have changed it, however that write ended (a Put
// that failed after removing the old copy holds nothing). Called with mu
// held.
func (rs *ReplicaSet) noteHeld(id string) {
	ids := *rs.ids.Load()
	i, listed := slices.BinarySearch(ids, id)
	switch stored := rs.held(id); {
	case stored && !listed:
		ids = slices.Insert(slices.Clone(ids), i, id)
	case !stored && listed:
		ids = slices.Delete(slices.Clone(ids), i, i+1)
	default:
		return
	}
	rs.ids.Store(&ids)
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

// SweepExpired removes replicas stored before cutoff, running or done —
// the replica half of TTL GC, so replicated checkpoints cannot accumulate
// forever on members that never ran the job — and returns the manifests
// of those it removed. A replica whose manifest is unreadable falls back
// to the directory's modtime, and is returned with only its JobID set.
func (rs *ReplicaSet) SweepExpired(cutoff time.Time) (removed []ReplicaManifest, err error) {
	entries, err := os.ReadDir(rs.root)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		id := e.Name()
		if !e.IsDir() || !jobIDPattern.MatchString(id) {
			continue
		}
		m, merr := rs.Manifest(id)
		if merr != nil {
			m = ReplicaManifest{JobID: id}
		}
		stored := m.StoredAt
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
		removed = append(removed, m)
	}
	return removed, err
}
