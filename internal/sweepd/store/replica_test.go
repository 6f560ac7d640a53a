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
// went (deleted by an expiry, or taken by an adoption, between the read
// and the write) is refused before it writes: never written past a
// zero-filled start, no directory comes back, and the held set is what it
// was.
func TestReplicaSetPutRefusesAShortFile(t *testing.T) {
	for _, door := range []string{"Delete", "Take"} {
		rs, err := OpenReplicaSet(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		id, other := "00000000000000ac", "00000000000000ad"
		for _, id := range []string{id, other} {
			if err := rs.Put(testManifest(id), []byte("a\nb\n"), []byte("c\n")); err != nil {
				t.Fatal(err)
			}
		}
		cur, err := rs.Manifest(id)
		if err != nil {
			t.Fatal(err)
		}
		if cur.CheckpointFrom != 4 || cur.TrajectoryFrom != 2 || cur.Records != [2]int{2, 1} {
			t.Fatalf("stored manifest says bytes %d+%d, records %v; want 4+2, [2 1]",
				cur.CheckpointFrom, cur.TrajectoryFrom, cur.Records)
		}
		if door == "Delete" {
			err = rs.Delete(id)
		} else if _, ok := rs.Take(id, filepath.Join(t.TempDir(), "results.jsonl"), filepath.Join(t.TempDir(), "trajectory.jsonl")); !ok {
			err = os.ErrNotExist
		}
		if err != nil {
			t.Fatalf("%s: %v", door, err)
		}
		// The second push extends only the sidecar: its checkpoint part,
		// from 0, must not be written either.
		for _, m := range []ReplicaManifest{cur, {JobID: id, TrajectoryFrom: 2}} {
			if err := rs.Put(m, []byte("d\n"), nil); err == nil {
				t.Fatalf("after %s: Put at bytes %d+%d extended a replica that is gone", door, m.CheckpointFrom, m.TrajectoryFrom)
			}
			if _, err := os.Stat(rs.dir(id)); !os.IsNotExist(err) {
				t.Fatalf("after %s: a refused Put left the replica's directory (%v)", door, err)
			}
			if ids := rs.List(); !slices.Equal(ids, []string{other}) {
				t.Fatalf("after %s: List = %v, want [%s]", door, ids, other)
			}
		}
	}
}

// TestReplicaSetTake: Take moves a replica's two files byte for byte to
// the paths it is given, removes the replica, and hands back its stored
// manifest; it takes a done replica as well as a running one, and reports
// false when none is stored.
func TestReplicaSetTake(t *testing.T) {
	rs, err := OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	ck, tr := filepath.Join(dst, "results.jsonl"), filepath.Join(dst, "trajectory.jsonl")
	if _, ok := rs.Take("00000000000000af", ck, tr); ok {
		t.Fatal("Take took a replica that is not stored")
	}
	if _, err := os.Stat(ck); !os.IsNotExist(err) {
		t.Fatalf("a refused Take wrote %s (%v)", ck, err)
	}
	for _, status := range []string{"running", "done"} {
		id := "00000000000000af"
		m := testManifest(id)
		m.Status = status
		if err := rs.Put(m, []byte("a\nb\n"), []byte("c\n")); err != nil {
			t.Fatal(err)
		}
		held := len(rs.List())
		got, ok := rs.Take(id, ck, tr)
		if !ok || got.JobID != id || got.Status != status || got.Records != [2]int{2, 1} {
			t.Fatalf("%s: Take = %+v, %v; want the stored manifest", status, got, ok)
		}
		for path, want := range map[string]string{ck: "a\nb\n", tr: "c\n"} {
			if data, err := os.ReadFile(path); err != nil || string(data) != want {
				t.Fatalf("%s: %s holds %q (%v), want %q", status, filepath.Base(path), data, err, want)
			}
		}
		if _, err := os.Stat(rs.dir(id)); !os.IsNotExist(err) {
			t.Fatalf("%s: the taken replica's directory is still there (%v)", status, err)
		}
		if ids := rs.List(); len(ids) != 0 || held != map[string]int{"running": 0, "done": 1}[status] {
			t.Fatalf("%s: held %d before Take, List = %v after", status, held, ids)
		}
	}
}
