package ncgio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/dynamics"
)

// cellResultJSON is the wire form of one sweep cell outcome: the cell
// coordinates, the run summary, the full final-round statistics, and the
// final strategy profile. Per-round trajectories are intentionally not
// serialized — sweeps do not collect them, and checkpoint lines must stay
// small. Field order is fixed, so encoding the same result always yields
// the same bytes (the property the resumable checkpoint format relies on).
type cellResultJSON struct {
	Alpha      float64             `json:"alpha"`
	K          int                 `json:"k"`
	Seed       int64               `json:"seed"`
	Status     string              `json:"status"`
	Rounds     int                 `json:"rounds"`
	TotalMoves int                 `json:"total_moves"`
	FinalStats dynamics.RoundStats `json:"final_stats"`
	State      json.RawMessage     `json:"state,omitempty"`
}

// MarshalCellResult returns the canonical one-line JSON encoding of r
// (without a trailing newline). Encoding is deterministic: the same
// result always marshals to the same bytes.
func MarshalCellResult(r dynamics.CellResult) ([]byte, error) {
	out := cellResultJSON{
		Alpha:      r.Cell.Alpha,
		K:          r.Cell.K,
		Seed:       r.Cell.Seed,
		Status:     r.Result.Status.String(),
		Rounds:     r.Result.Rounds,
		TotalMoves: r.Result.TotalMoves,
		FinalStats: r.Result.FinalStats,
	}
	if r.Result.Final != nil {
		state, err := MarshalState(r.Result.Final)
		if err != nil {
			return nil, fmt.Errorf("ncgio: %w", err)
		}
		out.State = state
	}
	return json.Marshal(out)
}

// UnmarshalCellResult inverts MarshalCellResult. The embedded state (when
// present) is fully decoded and validated; PerRound is always nil.
func UnmarshalCellResult(line []byte) (dynamics.CellResult, error) {
	var in cellResultJSON
	if err := json.Unmarshal(line, &in); err != nil {
		return dynamics.CellResult{}, fmt.Errorf("ncgio: %w", err)
	}
	status, ok := dynamics.ParseStatus(in.Status)
	if !ok {
		return dynamics.CellResult{}, fmt.Errorf("ncgio: unknown status %q", in.Status)
	}
	r := dynamics.CellResult{
		Cell: dynamics.Cell{Alpha: in.Alpha, K: in.K, Seed: in.Seed},
		Result: dynamics.Result{
			Status:     status,
			Rounds:     in.Rounds,
			TotalMoves: in.TotalMoves,
			FinalStats: in.FinalStats,
		},
	}
	if len(in.State) > 0 {
		s, err := DecodeState(bytes.NewReader(in.State))
		if err != nil {
			return dynamics.CellResult{}, err
		}
		r.Result.Final = s
	}
	return r, nil
}

// UnmarshalCell decodes only the coordinates of a cell-result line,
// skipping the statistics and the embedded state: what an index over
// many lines needs to key them. A line it accepts may still fail
// UnmarshalCellResult; decode in full before trusting the record.
func UnmarshalCell(line []byte) (dynamics.Cell, error) {
	var in struct {
		Alpha float64 `json:"alpha"`
		K     int     `json:"k"`
		Seed  int64   `json:"seed"`
	}
	if err := json.Unmarshal(line, &in); err != nil {
		return dynamics.Cell{}, fmt.Errorf("ncgio: %w", err)
	}
	return dynamics.Cell{Alpha: in.Alpha, K: in.K, Seed: in.Seed}, nil
}

// ReadCheckpoint loads a CellResult JSONL checkpoint file, tolerating a
// torn tail: if the process died mid-append, the final partial line is
// discarded and the file is truncated back to the last clean record, so a
// subsequent resume appends from a well-formed prefix. A missing file is
// an empty checkpoint, not an error. Only the checkpoint's owner should
// use this (truncation races a live writer); readers serving a checkpoint
// they do not own decode its bytes with DecodePrefix, which leaves the
// file alone.
func ReadCheckpoint(path string) ([]dynamics.CellResult, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ncgio: %w", err)
	}
	out, clean := DecodePrefix(data)
	if clean < len(data) {
		if err := os.Truncate(path, int64(clean)); err != nil {
			return out, fmt.Errorf("ncgio: repairing torn checkpoint: %w", err)
		}
	}
	return out, nil
}

// DecodePrefix decodes the clean whole-line prefix of checkpoint bytes,
// returning the records and the byte offset just past the last clean one
// (a torn or corrupt tail is left unconsumed rather than erroring, so
// incremental readers can retry it once more bytes land).
func DecodePrefix(data []byte) (out []dynamics.CellResult, clean int) {
	for line, end := range Lines(data) {
		rec, err := UnmarshalCellResult(line)
		if err != nil {
			break // corrupt record: keep the prefix before it
		}
		out = append(out, rec)
		clean = end
	}
	return out, clean
}

// CheckpointWriter appends CellResult lines to a checkpoint file. Each
// record is handed to the OS as one whole-line write (so concurrent
// readers only ever observe complete lines, barring a crash), and the
// file is fsynced every SyncEvery records and on Close, bounding how much
// a crash can lose — ReadCheckpoint repairs any torn tail.
type CheckpointWriter struct {
	f *os.File
	// fsync is f.Sync; a field so tests can count the calls.
	fsync func() error
	// since counts the records appended since the last successful fsync.
	since     int
	SyncEvery int
	// scratch assembles line+'\n' so each append is one whole-line write
	// without a fresh per-record allocation (the daemon pays AppendLine
	// once per finished cell).
	scratch []byte
}

// NewCheckpointWriter opens path for appending, creating it as needed.
func NewCheckpointWriter(path string) (*CheckpointWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ncgio: %w", err)
	}
	return &CheckpointWriter{f: f, fsync: f.Sync, SyncEvery: 32}, nil
}

// Append writes one result as a JSONL line.
func (w *CheckpointWriter) Append(r dynamics.CellResult) error {
	line, err := MarshalCellResult(r)
	if err != nil {
		return err
	}
	return w.AppendLine(line)
}

// AppendLine writes one pre-marshaled line (as produced by
// MarshalCellResult, without the newline).
func (w *CheckpointWriter) AppendLine(line []byte) error {
	w.scratch = append(w.scratch[:0], line...)
	w.scratch = append(w.scratch, '\n')
	if _, err := w.f.Write(w.scratch); err != nil {
		return err
	}
	w.since++
	if w.since >= w.SyncEvery {
		return w.Sync()
	}
	return nil
}

// Sync fsyncs the file.
func (w *CheckpointWriter) Sync() error {
	if err := w.fsync(); err != nil {
		return err
	}
	w.since = 0
	return nil
}

// Close syncs whatever was appended since the last Sync — nothing, when
// the caller has just synced — and closes the underlying file.
func (w *CheckpointWriter) Close() error {
	var serr error
	if w.since > 0 {
		serr = w.Sync()
	}
	cerr := w.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
