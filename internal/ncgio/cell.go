package ncgio

import (
	"fmt"
	"os"

	"repro/internal/dynamics"
)

// MarshalCellResult returns the canonical one-line JSON encoding of r
// (without a trailing newline): the cell coordinates, the run summary, the
// full final-round statistics, and the final strategy profile. Per-round
// trajectories are intentionally not serialized — sweeps do not collect
// them, and checkpoint lines must stay small. Field order is fixed, so
// encoding the same result always yields the same bytes (the property the
// resumable checkpoint format relies on), and only those bytes decode.
func MarshalCellResult(r dynamics.CellResult) ([]byte, error) {
	size := 128 + roundStatsSize
	if f := r.Result.Final; f != nil {
		arc := len(`[,],`)
		for n := f.N(); n > 0; n /= 10 {
			arc += 2 // one more digit in each of buyer and target
		}
		size += f.TotalBought() * arc
	}
	a := appender{b: make([]byte, 0, size)}
	a.cellResult(&r)
	return a.done()
}

// UnmarshalCellResult inverts MarshalCellResult, and accepts nothing else:
// when it succeeds, MarshalCellResult of the result is line. The embedded
// state (when present) is rebuilt; PerRound is always nil.
func UnmarshalCellResult(line []byte) (dynamics.CellResult, error) {
	s := scanner{b: line}
	r := s.cellResult(true)
	if err := s.end(); err != nil {
		return dynamics.CellResult{}, err
	}
	return r, nil
}

// UnmarshalCell validates a cell-result line and returns the cell it
// records: every check UnmarshalCellResult makes, without building the
// state and without allocating. It is what a reader that keeps the line
// as bytes — an index, a resume prefix, a replica holder — needs of it.
func UnmarshalCell(line []byte) (dynamics.Cell, error) {
	s := scanner{b: line}
	r := s.cellResult(false)
	if err := s.end(); err != nil {
		return dynamics.Cell{}, err
	}
	return r.Cell, nil
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
