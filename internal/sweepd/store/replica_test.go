package store

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func testManifest(id string) ReplicaManifest {
	return ReplicaManifest{
		JobID:      id,
		Kernel:     "deadbeef",
		Generation: 3,
		Status:     "done",
		Spec:       []byte(`{"n":10}`),
		StoredAt:   time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC),
	}
}

func TestReplicaSetPutRoundTrip(t *testing.T) {
	rs, err := OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := "00000000000000ab"
	ck := []byte("{\"alpha\":1}\n{\"alpha\":2}\n")
	tr := []byte("{\"alpha\":1,\"per_round\":[]}\n")
	if err := rs.Put(testManifest(id), ck, tr); err != nil {
		t.Fatal(err)
	}
	m, err := rs.Manifest(id)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobID != id || m.Generation != 3 {
		t.Fatalf("manifest round-trip = %+v", m)
	}
	got, err := os.ReadFile(rs.ResultsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ck) {
		t.Fatalf("checkpoint bytes = %q, want %q", got, ck)
	}
	got, err = os.ReadFile(rs.TrajectoryPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(tr) {
		t.Fatalf("trajectory bytes = %q, want %q", got, tr)
	}
	ids := rs.List()
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("List = %v", ids)
	}
}

func TestReplicaSetPutReplaces(t *testing.T) {
	rs, err := OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := "00000000000000ab"
	if err := rs.Put(testManifest(id), []byte("old\n"), []byte("sidecar\n")); err != nil {
		t.Fatal(err)
	}
	// The replacement has no sidecar: the old one must not survive the
	// swap (a stale sidecar next to a fresh checkpoint would be served).
	m := testManifest(id)
	m.Generation = 9
	if err := rs.Put(m, []byte("new\n"), nil); err != nil {
		t.Fatal(err)
	}
	got, err := rs.Manifest(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 9 {
		t.Fatalf("Generation after replace = %d, want 9", got.Generation)
	}
	data, err := os.ReadFile(rs.ResultsPath(id))
	if err != nil || string(data) != "new\n" {
		t.Fatalf("checkpoint after replace = %q, %v", data, err)
	}
	if _, err := os.Stat(rs.TrajectoryPath(id)); !os.IsNotExist(err) {
		t.Fatalf("stale trajectory sidecar survived the replace: %v", err)
	}
}

func TestReplicaSetRejectsBadID(t *testing.T) {
	rs, err := OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "nope", "../../etc/passwd", "00000000000000AB"} {
		m := testManifest("00000000000000ab")
		m.JobID = id
		if err := rs.Put(m, []byte("x\n"), nil); err == nil {
			t.Fatalf("Put accepted invalid job id %q", id)
		}
	}
}

func TestReplicaSetMissingManifest(t *testing.T) {
	rs, err := OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Manifest("00000000000000ab"); !os.IsNotExist(err) {
		t.Fatalf("Manifest of absent replica = %v, want os.IsNotExist", err)
	}
}

func TestReplicaSetDelete(t *testing.T) {
	rs, err := OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := "00000000000000ab"
	if err := rs.Put(testManifest(id), []byte("x\n"), nil); err != nil {
		t.Fatal(err)
	}
	if err := rs.Delete(id); err != nil {
		t.Fatal(err)
	}
	ids := rs.List()
	if len(ids) != 0 {
		t.Fatalf("List after Delete = %v", ids)
	}
	if err := rs.Delete(id); err != nil {
		t.Fatalf("second Delete errored: %v", err)
	}
}

func TestReplicaSetSweepExpired(t *testing.T) {
	rs, err := OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old := testManifest("00000000000000aa")
	old.StoredAt = time.Now().Add(-2 * time.Hour)
	fresh := testManifest("00000000000000bb")
	fresh.StoredAt = time.Now()
	for _, m := range []ReplicaManifest{old, fresh} {
		if err := rs.Put(m, []byte("x\n"), nil); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := rs.SweepExpired(time.Now().Add(-time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 {
		t.Fatalf("SweepExpired removed %d, want 1", len(removed))
	}
	ids := rs.List()
	if len(ids) != 1 || ids[0] != fresh.JobID {
		t.Fatalf("List after sweep = %v, want only %s", ids, fresh.JobID)
	}
}

func TestOpenReplicaSetClearsStaging(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "00000000000000ab.tmp")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "results.jsonl"), []byte("half\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReplicaSet(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("crash staging dir survived OpenReplicaSet: %v", err)
	}
}

// TestReplicaSetListMatchesWalk pins the in-memory held set to the
// directory: after every Put (new, replacing, out of order), Delete (held,
// not held) and SweepExpired, List equals what a fresh OpenReplicaSet
// reads off the disk — a directory without a manifest and a file with a
// job ID's name are on disk too, and in neither list.
func TestReplicaSetListMatchesWalk(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "00000000000000ee"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "00000000000000ff"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := OpenReplicaSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, want ...string) {
		t.Helper()
		fresh, err := OpenReplicaSet(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := rs.List(); !slices.Equal(got, fresh.List()) || !slices.Equal(got, want) {
			t.Fatalf("after %s: List = %v, a fresh walk %v, want %v", step, got, fresh.List(), want)
		}
	}
	put := func(id string, stored time.Time) {
		t.Helper()
		m := testManifest(id)
		m.StoredAt = stored
		if err := rs.Put(m, []byte("x\n"), nil); err != nil {
			t.Fatal(err)
		}
	}
	check("open")
	now := time.Now()
	put("00000000000000cc", now)
	check("first Put", "00000000000000cc")
	put("00000000000000aa", now.Add(-2*time.Hour))
	put("00000000000000dd", now.Add(-3*time.Hour))
	put("00000000000000bb", now)
	check("Puts out of order", "00000000000000aa", "00000000000000bb", "00000000000000cc", "00000000000000dd")
	put("00000000000000bb", now)
	check("replacing Put", "00000000000000aa", "00000000000000bb", "00000000000000cc", "00000000000000dd")
	if err := rs.Put(testManifest("not-a-job-id"), nil, nil); err == nil {
		t.Fatal("Put accepted an invalid job id")
	}
	check("refused Put", "00000000000000aa", "00000000000000bb", "00000000000000cc", "00000000000000dd")
	for _, id := range []string{"00000000000000cc", "00000000000000cc", "0000000000000099"} {
		if err := rs.Delete(id); err != nil {
			t.Fatal(err)
		}
		check("Delete "+id, "00000000000000aa", "00000000000000bb", "00000000000000dd")
	}
	if removed, err := rs.SweepExpired(now.Add(-time.Hour)); err != nil || len(removed) != 2 {
		t.Fatalf("SweepExpired removed %v, %v; want the two old replicas", removed, err)
	}
	check("SweepExpired", "00000000000000bb")
}

// TestReplicaSetPutRefusesAShortFile: Put records the lengths and records
// it stored, and a push judged against that manifest after the replica
// was removed (an expiry between the read and the write) is refused,
// never written past a zero-filled start.
func TestReplicaSetPutRefusesAShortFile(t *testing.T) {
	rs, err := OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := "00000000000000ac"
	if err := rs.Put(testManifest(id), []byte("a\nb\n"), []byte("c\n")); err != nil {
		t.Fatal(err)
	}
	cur, err := rs.Manifest(id)
	if err != nil {
		t.Fatal(err)
	}
	if cur.CheckpointFrom != 4 || cur.TrajectoryFrom != 2 || cur.Records != [2]int{2, 1} {
		t.Fatalf("stored manifest says bytes %d+%d, records %v; want 4+2, [2 1]",
			cur.CheckpointFrom, cur.TrajectoryFrom, cur.Records)
	}
	if err := rs.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := rs.Put(cur, []byte("d\n"), nil); err == nil {
		t.Fatal("Put extended a replica that is gone")
	}
	if data, _ := os.ReadFile(rs.ResultsPath(id)); len(data) != 0 {
		t.Fatalf("a refused Put left %q", data)
	}
	if ids := rs.List(); len(ids) != 0 {
		t.Fatalf("a refused Put is held: %v", ids)
	}
}
