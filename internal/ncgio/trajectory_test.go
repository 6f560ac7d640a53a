package ncgio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dynamics"
)

func TestTrajectoryRoundTrip(t *testing.T) {
	cell := dynamics.Cell{Alpha: 2.5, K: 1000, Seed: 7}
	pr := []dynamics.RoundStats{
		{Round: 1, Moves: 4, Diameter: 3, SocialCost: 12.5, Quality: 1.25},
		{Round: 2, Moves: 0, Diameter: 2, SocialCost: 11, Quality: 1.1},
	}
	line, err := MarshalTrajectory(cell, pr)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(line, '\n') {
		t.Fatal("trajectory line contains a newline")
	}
	tr, err := UnmarshalTrajectory(line)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cell() != cell {
		t.Fatalf("cell round-trip: got %+v, want %+v", tr.Cell(), cell)
	}
	if len(tr.PerRound) != len(pr) || tr.PerRound[0] != pr[0] || tr.PerRound[1] != pr[1] {
		t.Fatalf("per-round round-trip mismatch: %+v", tr.PerRound)
	}
	// Determinism: same input, same bytes.
	line2, err := MarshalTrajectory(cell, pr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, line2) {
		t.Fatal("trajectory encoding is nondeterministic")
	}
}

func TestUnmarshalTrajectoryRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalTrajectory([]byte(`{"alpha": "nope"}`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRepairTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trajectory.jsonl")

	// Missing file: no-op.
	if err := RepairTail(path); err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(path, []byte("{\"a\":1}\n{\"b\":2}\n{\"torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RepairTail(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{\"a\":1}\n{\"b\":2}\n" {
		t.Fatalf("repaired file = %q", data)
	}

	// Already-clean file stays untouched.
	if err := RepairTail(path); err != nil {
		t.Fatal(err)
	}
	again, _ := os.ReadFile(path)
	if !bytes.Equal(again, data) {
		t.Fatal("clean file modified by repair")
	}

	// A file with no newline at all is emptied (nothing provably whole).
	if err := os.WriteFile(path, []byte("{\"only-torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RepairTail(path); err != nil {
		t.Fatal(err)
	}
	empty, _ := os.ReadFile(path)
	if len(empty) != 0 {
		t.Fatalf("torn-only file = %q, want empty", empty)
	}
}
