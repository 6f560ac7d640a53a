package store

import (
	"encoding/json"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
)

// jobIDPattern matches content-address job IDs (Spec.ID()): 16 hex chars.
var jobIDPattern = regexp.MustCompile(`^[0-9a-f]{16}$`)

// Meta is the small lifecycle record persisted as meta.json next to
// spec.json: when the job was first admitted and when it last reached a
// terminal status (zero while running). The GC loop decides reaping
// from these timestamps, so they survive daemon restarts.
type Meta struct {
	Created  time.Time `json:"created"`
	Finished time.Time `json:"finished,omitzero"`
}

// FS is the filesystem backend: one directory per job holding the
// normalized spec (spec.json) and the streaming results checkpoint
// (results.jsonl, one canonical ncgio cell line per result, in canonical
// cell order). It stores specs as opaque bytes; sweepd.Store embeds it
// and adds the spec-typed CreateJob and LoadSpec.
type FS struct {
	root string
}

// Open opens (creating if needed) a filesystem store rooted at dir.
// Orphan job dirs left behind by a crash mid-CreateJob are swept on
// open.
func Open(dir string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	fs := &FS{root: dir}
	fs.SweepOrphans(time.Now()) //nolint:errcheck // best-effort cleanup
	return fs, nil
}

func (fs *FS) jobDir(id string) string   { return filepath.Join(fs.root, id) }
func (fs *FS) metaPath(id string) string { return filepath.Join(fs.jobDir(id), "meta.json") }

// SpecPath returns the job's on-disk spec path (error messages point
// clients and operators at the exact bytes that failed to parse).
func (fs *FS) SpecPath(id string) string { return filepath.Join(fs.jobDir(id), "spec.json") }

// ResultsPath returns the job's checkpoint file path.
func (fs *FS) ResultsPath(id string) string {
	return filepath.Join(fs.jobDir(id), "results.jsonl")
}

// TrajectoryPath returns the job's per-round trajectory sidecar path
// (only written for specs with Trajectories set).
func (fs *FS) TrajectoryPath(id string) string {
	return filepath.Join(fs.jobDir(id), "trajectory.jsonl")
}

// TrajectoryAppender opens the job's trajectory sidecar for streaming
// appends, repairing any torn tail first so a fresh line never merges
// into a torn one. Callers resuming a job run ReconcileTrajectories
// before this (which already truncates past the common prefix, torn
// tails included) — the repair here is the writer's cheap backstop, an
// O(tail-chunk) backwards scan.
func (fs *FS) TrajectoryAppender(id string) (*ncgio.CheckpointWriter, error) {
	path := fs.TrajectoryPath(id)
	if err := ncgio.RepairTail(path); err != nil {
		return nil, err
	}
	return ncgio.NewCheckpointWriter(path)
}

// ReconcileTrajectories truncates a trajectory job's checkpoint AND
// sidecar back to their longest common cell-prefix before a resume. The
// runner appends both files in the same canonical cell order (sidecar
// line first), so after a clean run they list identical cell sequences;
// any divergence is crash damage — a process killed between the two
// appends leaves one surplus sidecar record, and a power loss can
// persist either file's tail without the other's (the two files fsync
// independently). Truncating both to the agreed prefix is always safe:
// per-cell determinism recomputes the dropped tail byte-identically,
// whereas a checkpointed cell whose sidecar record was lost could never
// regenerate it (resume skips checkpointed cells). Missing files are
// empty prefixes. Only the job's own runner may call this (truncation
// races a live writer).
//
// Both files are read whole (ncgio.Lines frames bytes, not streams): the
// memory the runner spends on the checkpoint one call later, plus the
// sidecar's size, once per resume of a trajectory job.
func (fs *FS) ReconcileTrajectories(id string) error {
	paths := [2]string{fs.ResultsPath(id), fs.TrajectoryPath(id)}
	var data [2][]byte
	for i, path := range paths {
		var err error
		if data[i], err = os.ReadFile(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: %w", err)
		}
	}
	nextTr, stop := iter.Pull2(ncgio.Lines(data[1]))
	defer stop()
	var agreed [2]int // where the common prefix ends in each file
	for ckLine, ckEnd := range ncgio.Lines(data[0]) {
		trLine, trEnd, ok := nextTr()
		if !ok {
			break
		}
		cell, err := ncgio.UnmarshalCell(ckLine)
		if err != nil {
			break // corrupt checkpoint record; drop it and the rest
		}
		trec, err := ncgio.UnmarshalTrajectory(trLine)
		if err != nil || trec.Cell() != cell {
			break
		}
		agreed = [2]int{ckEnd, trEnd}
	}
	for i, path := range paths {
		if agreed[i] < len(data[i]) { // never true of a missing file
			if err := os.Truncate(path, int64(agreed[i])); err != nil {
				return fmt.Errorf("store: reconciling trajectories: %w", err)
			}
		}
	}
	return nil
}

// CreateJob persists pre-marshaled spec bytes under the given content
// address. It reports created=false when the job already exists (same
// spec ⇒ same ID ⇒ same job), making submission idempotent. The spec is
// written atomically (temp file + rename) so a half-written spec can
// never be mistaken for a job.
func (fs *FS) CreateJob(id string, spec []byte) (created bool, err error) {
	if _, err := os.Stat(fs.SpecPath(id)); err == nil {
		return false, nil
	}
	if err := os.MkdirAll(fs.jobDir(id), 0o755); err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	tmp := fs.SpecPath(id) + ".tmp"
	if err := os.WriteFile(tmp, spec, 0o644); err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, fs.SpecPath(id)); err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	return true, nil
}

// ReadSpec reads a job's raw spec bytes back.
func (fs *FS) ReadSpec(id string) ([]byte, error) {
	data, err := os.ReadFile(fs.SpecPath(id))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return data, nil
}

// WriteMeta persists the job's lifecycle record atomically (temp file +
// rename), same contract as the spec itself.
func (fs *FS) WriteMeta(id string, meta Meta) error {
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := fs.metaPath(id) + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, fs.metaPath(id)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// LoadMeta reads a job's lifecycle record. A missing or corrupt
// meta.json is an error; callers fall back to filesystem timestamps.
func (fs *FS) LoadMeta(id string) (Meta, error) {
	data, err := os.ReadFile(fs.metaPath(id))
	if err != nil {
		return Meta{}, fmt.Errorf("store: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(data, &meta); err != nil {
		return Meta{}, fmt.Errorf("store: job %s: %w", id, err)
	}
	return meta, nil
}

// DeleteJob removes a job's directory entirely — spec, meta, and
// checkpoint. Callers (Manager.Evict) are responsible for making sure
// no runner still holds the checkpoint open.
func (fs *FS) DeleteJob(id string) error {
	if err := os.RemoveAll(fs.jobDir(id)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// SweepOrphans removes half-created job artifacts: directories that
// look like job dirs but hold no committed spec.json (a crash between
// CreateJob's MkdirAll and the spec rename leaves the dir, and possibly
// a spec.json.tmp, behind — Jobs() skips them but nothing else ever
// deleted them). Only dirs whose modtime is before cutoff are touched,
// so a CreateJob racing the sweep keeps its half-made directory.
func (fs *FS) SweepOrphans(cutoff time.Time) (removed int, err error) {
	entries, rerr := os.ReadDir(fs.root)
	if rerr != nil {
		return 0, fmt.Errorf("store: %w", rerr)
	}
	for _, e := range entries {
		if !e.IsDir() || !jobIDPattern.MatchString(e.Name()) {
			continue
		}
		if _, serr := os.Stat(fs.SpecPath(e.Name())); serr == nil {
			continue // committed job
		}
		info, ierr := e.Info()
		if ierr != nil || !info.ModTime().Before(cutoff) {
			continue
		}
		if derr := os.RemoveAll(fs.jobDir(e.Name())); derr != nil {
			if err == nil {
				err = fmt.Errorf("store: %w", derr)
			}
			continue
		}
		removed++
	}
	return removed, err
}

// Jobs lists the IDs of all persisted jobs, sorted.
func (fs *FS) Jobs() ([]string, error) {
	entries, err := os.ReadDir(fs.root)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() || !jobIDPattern.MatchString(e.Name()) {
			continue
		}
		if _, err := os.Stat(fs.SpecPath(e.Name())); err != nil {
			continue // half-created job: no committed spec
		}
		ids = append(ids, e.Name())
	}
	sort.Strings(ids)
	return ids, nil
}

// LoadResults reads a job's checkpoint, repairing a torn tail if the
// previous process died mid-append.
func (fs *FS) LoadResults(id string) ([]dynamics.CellResult, error) {
	return ncgio.ReadCheckpoint(fs.ResultsPath(id))
}

// Appender opens the job's checkpoint for streaming appends.
func (fs *FS) Appender(id string) (*ncgio.CheckpointWriter, error) {
	return ncgio.NewCheckpointWriter(fs.ResultsPath(id))
}
