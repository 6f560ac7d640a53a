package sweepd

import (
	"encoding/json"
	"fmt"

	"repro/internal/sweepd/store"
)

// Store is the job store: the filesystem backend from
// internal/sweepd/store (whose paths, checkpoint appenders, lifecycle
// meta, delete and orphan sweep it promotes unchanged) plus the two
// operations that need the Spec type. One directory per job holds the
// normalized spec (spec.json), the lifecycle record (meta.json) and the
// streaming results checkpoint (results.jsonl, one canonical ncgio cell
// line per result, in canonical cell order). Everything a restarted
// daemon needs to resume lives here.
type Store struct {
	*store.FS
}

// OpenStore opens (creating if needed) a store rooted at dir. Orphan
// job dirs left behind by a crash mid-CreateJob are swept on open.
func OpenStore(dir string) (*Store, error) {
	fs, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("sweepd: %w", err)
	}
	return &Store{FS: fs}, nil
}

// CreateJob persists a normalized, validated spec under its content
// address. It reports created=false when the job already exists (same
// spec ⇒ same ID ⇒ same job), making submission idempotent. The spec is
// written atomically (temp file + rename) so a half-written spec can
// never be mistaken for a job.
func (st *Store) CreateJob(sp Spec) (id string, created bool, err error) {
	id = sp.ID()
	data, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return "", false, fmt.Errorf("sweepd: %w", err)
	}
	created, err = st.FS.CreateJob(id, append(data, '\n'))
	if err != nil {
		return "", false, fmt.Errorf("sweepd: %w", err)
	}
	return id, created, nil
}

// LoadSpec reads a job's spec back, normalized, with the kernel it names.
func (st *Store) LoadSpec(id string) (Spec, error) {
	data, err := st.ReadSpec(id)
	if err != nil {
		return Spec{}, fmt.Errorf("sweepd: %w", err)
	}
	sp, err := decodeSpec(data)
	if err != nil {
		return Spec{}, fmt.Errorf("sweepd: job %s: invalid spec %s: %w", id, st.SpecPath(id), err)
	}
	return sp, nil
}
