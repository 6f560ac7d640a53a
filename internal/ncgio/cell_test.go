package ncgio

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/gen"
)

func sampleResults(t testing.TB, n int) []dynamics.CellResult {
	t.Helper()
	cells := dynamics.Grid([]float64{0.5, 2}, []int{2, 1000}, (n+3)/4)
	cfg := dynamics.DefaultConfig(game.Max, 0, 0)
	factory := func(cell dynamics.Cell, rng *rand.Rand) *game.State {
		return game.FromGraphRandomOwners(gen.RandomTree(12, rng), rng)
	}
	out := dynamics.Sweep(cells, cfg, factory, 42)
	if len(out) < n {
		t.Fatalf("sample too small: %d < %d", len(out), n)
	}
	return out[:n]
}

func TestCellResultRoundTrip(t *testing.T) {
	for _, r := range sampleResults(t, 8) {
		line, err := MarshalCellResult(r)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalCellResult(line)
		if err != nil {
			t.Fatal(err)
		}
		if back.Cell != r.Cell {
			t.Fatalf("cell: got %+v want %+v", back.Cell, r.Cell)
		}
		if back.Result.Status != r.Result.Status ||
			back.Result.Rounds != r.Result.Rounds ||
			back.Result.TotalMoves != r.Result.TotalMoves ||
			back.Result.FinalStats != r.Result.FinalStats {
			t.Fatalf("summary mismatch:\n got %+v\nwant %+v", back.Result, r.Result)
		}
		if back.Result.Final.Fingerprint() != r.Result.Final.Fingerprint() {
			t.Fatal("final state fingerprint changed across round-trip")
		}
	}
}

func TestMarshalCellResultDeterministic(t *testing.T) {
	r := sampleResults(t, 1)[0]
	a, err := MarshalCellResult(r)
	if err != nil {
		t.Fatal(err)
	}
	// Re-marshaling a decoded result must reproduce the same bytes — the
	// property that lets cache hits be appended to checkpoints verbatim.
	back, err := UnmarshalCellResult(a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalCellResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("marshal not stable across round-trip:\n%s\n%s", a, b)
	}
}

// TestDecodeCellResultsStream decodes a stream of result lines the way the
// serving layer does: DecodePrefix returns every record in order and
// consumes the whole buffer.
func TestDecodeCellResultsStream(t *testing.T) {
	results := sampleResults(t, 5)
	var buf bytes.Buffer
	for _, r := range results {
		line, err := MarshalCellResult(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	got, clean := DecodePrefix(buf.Bytes())
	if len(got) != len(results) || clean != buf.Len() {
		t.Fatalf("decoded %d records up to byte %d, want %d up to %d", len(got), clean, len(results), buf.Len())
	}
	for i := range got {
		if got[i].Cell != results[i].Cell {
			t.Fatalf("record %d cell mismatch", i)
		}
	}
}

func TestReadCheckpointRepairsTornTail(t *testing.T) {
	results := sampleResults(t, 4)
	path := filepath.Join(t.TempDir(), "results.jsonl")
	w, err := NewCheckpointWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		line, err := MarshalCellResult(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendLine(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: clip the last line in half.
	torn := clean[:len(clean)-17]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(results)-1 {
		t.Fatalf("recovered %d records, want %d", len(got), len(results)-1)
	}
	// The file must have been truncated back to the clean prefix so a
	// resume appends from a well-formed boundary.
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantPrefix := bytes.Join(bytes.SplitAfter(clean, []byte("\n"))[:len(results)-1], nil)
	if !bytes.Equal(repaired, wantPrefix) {
		t.Fatalf("repair wrong:\ngot  %q\nwant %q", repaired, wantPrefix)
	}
}

func TestReadCheckpointMissingFile(t *testing.T) {
	got, err := ReadCheckpoint(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || got != nil {
		t.Fatalf("missing file: got %v, %v; want nil, nil", got, err)
	}
}

func TestUnmarshalCellResultRejectsBadStatus(t *testing.T) {
	if _, err := UnmarshalCellResult([]byte(`{"alpha":1,"k":2,"seed":0,"status":"exploded"}`)); err == nil {
		t.Fatal("bad status accepted")
	}
}

// countingWriter opens a checkpoint writer whose fsyncs are counted (and
// still performed).
func countingWriter(t *testing.T) (*CheckpointWriter, *int) {
	t.Helper()
	w, err := NewCheckpointWriter(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	w.SyncEvery = 1 << 30
	syncs, fsync := new(int), w.fsync
	w.fsync = func() error { *syncs++; return fsync() }
	return w, syncs
}

// TestCloseSkipsFsyncAfterSync: the daemon's runner syncs before it
// publishes a terminal status and closes on its way out; the second
// fsync of the same descriptor, with nothing appended in between, is
// skipped.
func TestCloseSkipsFsyncAfterSync(t *testing.T) {
	w, syncs := countingWriter(t)
	if err := w.AppendLine([]byte(`{"alpha":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if *syncs != 1 {
		t.Fatalf("append, Sync, Close fsynced %d times, want 1", *syncs)
	}
}

// TestCloseSyncsUnsyncedTail: a record appended after the last Sync is
// still made durable by Close.
func TestCloseSyncsUnsyncedTail(t *testing.T) {
	w, syncs := countingWriter(t)
	for i := 0; i < 2; i++ {
		if err := w.AppendLine([]byte(`{"alpha":1}`)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if *syncs != 2 {
		t.Fatalf("append, Sync, append, Close fsynced %d times, want 2", *syncs)
	}
}

// TestUnmarshalCellMatchesFullDecode: the coordinates-only decoder keys a
// line the way the full decoder does.
func TestUnmarshalCellMatchesFullDecode(t *testing.T) {
	for _, r := range sampleResults(t, 4) {
		line, err := MarshalCellResult(r)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := UnmarshalCell(line)
		if err != nil || cell != r.Cell {
			t.Fatalf("UnmarshalCell = %+v, %v; want %+v", cell, err, r.Cell)
		}
	}
	if _, err := UnmarshalCell([]byte(`{"alpha":`)); err == nil {
		t.Fatal("torn line decoded")
	}
}
