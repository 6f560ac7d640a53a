package sweepd

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
	"repro/internal/sweepd/store"
)

// honestReplica computes a spec's whole grid in process and returns the
// manifest a leader would send with it, and the checkpoint and sidecar
// records ('\n' included) that would follow.
func honestReplica(t testing.TB, sp Spec) (m store.ReplicaManifest, checkpoint, sidecar [][]byte) {
	t.Helper()
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, r := range dynamics.Sweep(sp.Cells(), sp.Config(), sp.Factory(), sp.BaseSeed) {
		line, err := ncgio.MarshalCellResult(r)
		if err != nil {
			t.Fatal(err)
		}
		checkpoint = append(checkpoint, append(line, '\n'))
		if sp.Trajectories {
			tline, err := ncgio.MarshalTrajectory(r.Cell, r.Result.PerRound)
			if err != nil {
				t.Fatal(err)
			}
			sidecar = append(sidecar, append(tline, '\n'))
		}
	}
	specJSON, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return store.ReplicaManifest{
		JobID: sp.ID(), Kernel: sp.KernelHash(), Generation: 1, Status: string(StatusDone), Spec: specJSON,
	}, checkpoint, sidecar
}

// plantReplica stores checkpoint and sidecar, unjudged, as mgr's replica
// of sp's job, giving mgr a replica set if it has none: the seed its next
// Adopt of sp takes.
func plantReplica(t testing.TB, mgr *Manager, sp Spec, checkpoint, sidecar []byte) {
	t.Helper()
	rs := mgr.Replicas()
	if rs == nil {
		var err error
		if rs, err = store.OpenReplicaSet(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		mgr.SetReplicas(rs)
	}
	sp.Normalize()
	m := store.ReplicaManifest{JobID: sp.ID(), Kernel: sp.KernelHash(), Generation: 1, Status: string(StatusRunning)}
	if err := rs.Put(m, checkpoint, sidecar); err != nil {
		t.Fatal(err)
	}
}

// FuzzVerifyReplica feeds arbitrary bytes after an honest manifest of a
// fixed 4-cell spec (with and without a sidecar), pushed to a holder that
// stores the first kept records of the honest files, as a running tail
// or as the done push, starting skew bytes past where the holder's files
// end. It must not panic, and whatever it accepts is written byte for
// byte, so an accepted push starts where the holder's files end or at 0,
// and its body is whole records, each followed by one '\n', cut where the
// checkpoint's new records end — the two halves concatenate back to the
// input — each the canonical encoding of what it decodes to, with no file
// past the grid and, for a done push, both files complete.
func FuzzVerifyReplica(f *testing.F) {
	sp := Spec{N: 8, Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 2}
	plain, ck, _ := honestReplica(f, sp)
	sp.Trajectories = true
	traj, tck, tside := honestReplica(f, sp)
	join := func(parts ...[][]byte) []byte {
		var all [][]byte
		for _, p := range parts {
			all = append(all, p...)
		}
		return bytes.Join(all, nil)
	}
	// push is the holder's view of one push: it stores the first kept
	// records of each honest file (cur), and the manifest starts skew bytes
	// past where its checkpoint ends.
	push := func(trajectories, running bool, kept int, skew int64) (m, cur store.ReplicaManifest) {
		m, side := plain, [][]byte(nil)
		if trajectories {
			m, side = traj, tside
		}
		cur.CheckpointFrom, cur.Records[0] = int64(len(join(ck[:kept]))), kept
		if trajectories {
			cur.TrajectoryFrom, cur.Records[1] = int64(len(join(side[:kept]))), kept
		}
		if running {
			m.Status = string(StatusRunning)
		}
		m.CheckpointFrom, m.TrajectoryFrom = cur.CheckpointFrom+skew, cur.TrajectoryFrom
		return m, cur
	}
	honest := join(tck, tside)
	// The property below is vacuous unless honest pushes pass: the whole
	// grid at once, and two pushes — a running tail, then the done one —
	// that store the leader's files.
	if _, _, err := VerifyReplica(plain.JobID, plain, store.ReplicaManifest{}, join(ck)); err != nil {
		f.Fatal(err)
	}
	if _, _, err := VerifyReplica(traj.JobID, traj, store.ReplicaManifest{}, honest); err != nil {
		f.Fatal(err)
	}
	for _, trajectories := range []bool{false, true} {
		side := map[bool][][]byte{true: tside}[trajectories]
		var stored [2][]byte
		for i, p := range []struct {
			running    bool
			kept, upto int
		}{{true, 0, 2}, {false, 2, 4}} {
			m, cur := push(trajectories, p.running, p.kept, 0)
			body := join(ck[p.kept:p.upto])
			if trajectories {
				body = join(tck[p.kept:p.upto], side[p.kept:p.upto])
			}
			checkpoint, trajectory, err := VerifyReplica(m.JobID, m, cur, body)
			if err != nil {
				f.Fatalf("trajectories=%v: push %d: %v", trajectories, i, err)
			}
			stored[0], stored[1] = append(stored[0], checkpoint...), append(stored[1], trajectory...)
		}
		if !bytes.Equal(stored[0], join(ck)) || !bytes.Equal(stored[1], join(side)) {
			f.Fatalf("trajectories=%v: two pushes stored %d and %d bytes, the leader holds %d and %d",
				trajectories, len(stored[0]), len(stored[1]), len(join(ck)), len(join(side)))
		}
	}
	// A push from the start replaces what the holder stores of the file.
	replace := join(tck, tside[2:])
	m, cur := push(true, false, 2, -int64(len(join(ck[:2]))))
	if checkpoint, trajectory, err := VerifyReplica(m.JobID, m, cur, replace); err != nil ||
		!bytes.Equal(checkpoint, join(tck)) || !bytes.Equal(trajectory, join(tside[2:])) {
		f.Fatalf("a done push replacing the checkpoint of a holder of two records: %v", err)
	}
	f.Add(replace, true, false, uint8(2), -int64(len(join(ck[:2]))))
	add := func(body []byte, trajectories bool) { f.Add(body, trajectories, false, uint8(0), int64(0)) }
	add(join(ck), false)
	add(honest, true)
	add(bytes.ReplaceAll(honest, []byte("\n"), []byte(" \n  ")), true)                   // padded
	add(bytes.ReplaceAll(honest, []byte("\n"), []byte("\n\n")), true)                    // blank-separated
	add(join(tck, [][]byte{[]byte("\n")}, tside), true)                                  // blank line at the cut
	add(join(tck[:3], tside), true)                                                      // one record short
	add(join([][]byte{tck[1], tck[0]}, tck[2:], tside), true)                            // two records swapped
	add(join(tck, [][]byte{tside[1], tside[0]}, tside[2:]), true)                        // two sidecar records swapped
	add(join(ck, tside), false)                                                          // sidecar for a spec without one
	add(append(bytes.Clone(honest), `{"alpha":1`...), true)                              // torn tail
	add(join(tck, tside, tside[3:]), true)                                               // a whole line too many
	add(bytes.Replace(join(ck), []byte(`{"alpha"`), []byte(`{"x":1,"alpha"`), 1), false) // extra field
	// The first record (α = 1) under every respelling of strict_test.go's table.
	variants := nonCanonical(f, bytes.TrimSuffix(ck[0], []byte("\n")))
	for _, name := range slices.Sorted(maps.Keys(variants)) {
		add(join([][]byte{variants[name], []byte("\n")}, ck[1:]), false)
		add(join([][]byte{variants[name], []byte("\n")}, tck[1:], tside), true)
	}
	// Tails, each refused.
	for _, tc := range []struct {
		name                  string
		body                  []byte
		trajectories, running bool
		kept                  uint8
		skew                  int64
	}{
		{"an offset that is not the stored length", join(ck[2:]), false, false, 2, 1},
		{"an offset into a file the holder does not have", join(tck[2:], tside[2:]), true, true, 2, -int64(len(ck[1]))},
		{"a tail that starts a record early", join(ck[1:3]), false, true, 2, 0},
		{"a tail that skips a record", join(tck[3:], tside[2:]), true, true, 2, 0},
		{"a torn tail", append(join(ck[1:3]), ck[3][:5]...), false, true, 1, 0},
		{"a running tail past the grid", join(ck[2:], ck[3:]), false, true, 2, 0},
		{"a sidecar tail past the grid", join(tck[2:], tside[2:], tside[3:]), true, true, 2, 0},
		{"a done push that leaves the grid short", join(ck[1:3]), false, false, 1, 0},
		{"a done push that leaves the sidecar short", join(tck[1:], tside[1:3]), true, false, 1, 0},
	} {
		m, cur := push(tc.trajectories, tc.running, int(tc.kept), tc.skew)
		if _, _, err := VerifyReplica(m.JobID, m, cur, tc.body); err == nil {
			f.Fatalf("%s: accepted", tc.name)
		}
		f.Add(tc.body, tc.trajectories, tc.running, tc.kept, tc.skew)
	}
	f.Add(join(ck[:2]), false, true, uint8(0), int64(0))             // the honest sequence's first push
	f.Add(join(tck[2:], tside[2:]), true, false, uint8(2), int64(0)) // and its second
	f.Fuzz(func(t *testing.T, body []byte, trajectories, running bool, kept uint8, skew int64) {
		k := int(kept) % 5
		m, cur := push(trajectories, running, k, skew)
		checkpoint, trajectory, err := VerifyReplica(m.JobID, m, cur, body)
		if err != nil {
			return
		}
		if skew != 0 && m.CheckpointFrom != 0 {
			t.Fatalf("accepted a push starting %d bytes away from the stored files", skew)
		}
		if m.CheckpointFrom == 0 {
			k = 0 // the push replaces the checkpoint
		}
		if !bytes.Equal(append(bytes.Clone(checkpoint), trajectory...), body) {
			t.Fatalf("accepted halves (%d + %d bytes) are not the %d-byte input", len(checkpoint), len(trajectory), len(body))
		}
		for name, half := range map[string]struct {
			data   []byte
			stored int
		}{"checkpoint": {checkpoint, k}, "trajectory": {trajectory, cur.Records[1]}} {
			lines := bytes.SplitAfter(half.data, []byte{'\n'})
			if last := lines[len(lines)-1]; len(last) != 0 {
				t.Fatalf("accepted %s ends in a torn tail %q", name, last)
			}
			lines = lines[:len(lines)-1]
			total := half.stored + len(lines)
			switch {
			case name == "trajectory" && !trajectories && len(lines) > 0:
				t.Fatalf("accepted %d sidecar lines for a spec without one", len(lines))
			case total > 4:
				t.Fatalf("accepted %s holds %d records, the grid has 4", name, total)
			case !running && (trajectories || name == "checkpoint") && total != 4:
				t.Fatalf("accepted done %s holds %d records, want 4", name, total)
			}
			for i, line := range lines {
				rec := line[:len(line)-1]
				if len(rec) == 0 || !bytes.Equal(rec, bytes.TrimSpace(rec)) {
					t.Fatalf("accepted %s line %d is blank or padded: %q", name, i, line)
				}
				// What lands is the encoding of what it decodes to.
				var enc []byte
				var err error
				if name == "checkpoint" {
					var r dynamics.CellResult
					if r, err = ncgio.UnmarshalCellResult(rec); err == nil {
						enc, err = ncgio.MarshalCellResult(r)
					}
				} else {
					var tr ncgio.TrajectoryRecord
					if tr, err = ncgio.UnmarshalTrajectory(rec); err == nil {
						enc, err = ncgio.MarshalTrajectory(tr.Cell(), tr.PerRound)
					}
				}
				if err != nil || !bytes.Equal(enc, rec) {
					t.Fatalf("accepted %s line %d\n%s\nre-encodes to\n%s (%v)", name, i, rec, enc, err)
				}
			}
		}
	})
}

// FuzzSpecDecode: whatever JSON a client or peer sends as a spec,
// Normalize is idempotent, Validate does not panic, and the two content
// addresses do not move under a second Normalize or when the normalized
// spec is stored and read back.
func FuzzSpecDecode(f *testing.F) {
	f.Add([]byte(`{"n":30,"alphas":[0.5,1,2],"ks":[2,1000],"seeds":4}`))
	f.Add([]byte(`{"dialect":"best-response","variant":"sum","graph":"gnp","n":100,"p":0.1,"q":3,"alphas":[2,2,1],"ks":[3,3],"seeds":1,"trajectories":true}`))
	f.Add([]byte(`{"dialect":"large-neighborhood","graph":"random-regular","n":12,"q":3,"alphas":[1e12],"ks":[1],"seeds":200001}`))
	f.Add([]byte(`{"dialect":"swap","graph":"grid-delete","n":4000000000,"p":-1,"alphas":[-0,0,1e13],"ks":[0,-1],"seeds":-5,"base_seed":-9223372036854775808}`))
	f.Add([]byte(`{"graph":"nope","variant":"mid","n":1,"alphas":[],"ks":null,"max_rounds":-1}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if json.Unmarshal(data, &sp) != nil {
			return
		}
		sp.Normalize()
		once, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		id, kernel := sp.ID(), sp.KernelHash()
		verr := sp.Validate()
		sp.Normalize()
		twice, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("Normalize is not idempotent:\n%s\n%s", once, twice)
		}
		if sp.ID() != id || sp.KernelHash() != kernel {
			t.Fatalf("ID/KernelHash moved under a second Normalize: %s/%s → %s/%s", id, kernel, sp.ID(), sp.KernelHash())
		}
		if stored, err := decodeSpec(once); err != nil || stored.ID() != id || stored.KernelHash() != kernel {
			t.Fatalf("ID/KernelHash moved when read back (%v): %s/%s → %s/%s", err, id, kernel, stored.ID(), stored.KernelHash())
		}
		if verr2 := sp.Validate(); (verr == nil) != (verr2 == nil) {
			t.Fatalf("Validate changed its mind under a second Normalize: %v → %v", verr, verr2)
		}
	})
}

// FuzzTrajectoryResume damages one file of a done four-cell trajectory
// job — it inserts, deletes or overwrites bytes at an offset of the
// checkpoint or of the sidecar — and hands the pair to the job through one
// of its two doors: written to disk and resumed, or, with adopt set,
// planted as the replica a fresh store's Manager.Adopt takes as its seed.
// Either way both files must end byte-identical to the undamaged pair,
// and an undamaged pair must append no cell. The files carry no checksum,
// so damage that leaves another canonical record of the same cell in
// place of the first one it touches is not damage any reader can see;
// such an input is skipped.
func FuzzTrajectoryResume(f *testing.F) {
	sp := Spec{N: 8, Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 2, Trajectories: true}
	sp.Normalize()
	_, ck, side := honestReplica(f, sp)
	want := [2][]byte{bytes.Join(ck, nil), bytes.Join(side, nil)}
	cellOf := [2]func([]byte) (dynamics.Cell, error){ncgio.UnmarshalCell, trajectoryCell}
	const insert, remove, overwrite = 0, 1, 2
	f.Add(false, true, uint8(insert), uint16(len(side[0])), []byte("\n"))    // a blank line between sidecar records
	f.Add(false, true, uint8(insert), uint16(len(side[0])), []byte("  "))    // a padded sidecar record
	f.Add(false, false, uint8(insert), uint16(len(ck[0])+len(ck[1])), ck[1]) // a checkpoint record duplicated
	f.Add(false, true, uint8(remove), uint16(len(want[1])-1), []byte("x"))   // the sidecar's last newline lost
	f.Add(false, false, uint8(overwrite), uint16(2), []byte("beta"))         // a checkpoint key respelled
	f.Add(true, true, uint8(insert), uint16(len(side[0])), []byte("\n"))     // an adopted sidecar with a blank line
	f.Add(true, false, uint8(remove), uint16(0), []byte{})                   // an undamaged pair adopted
	f.Fuzz(func(t *testing.T, adopt, sidecar bool, op uint8, off uint16, data []byte) {
		i := 0
		if sidecar {
			i = 1
		}
		var files [2][]byte
		files[1-i] = want[1-i]
		b := want[i]
		at := int(off) % (len(b) + 1)
		cut, ins := at, data
		switch op % 3 {
		case remove:
			cut, ins = min(len(b), at+len(data)), nil
		case overwrite:
			cut = min(len(b), at+len(data))
		}
		files[i] = slices.Concat(b[:at], ins, b[cut:])

		recs, wantRecs := bytes.SplitAfter(files[i], []byte("\n")), bytes.SplitAfter(want[i], []byte("\n"))
		for j := 0; j < len(recs) && j < sp.NumCells(); j++ {
			if bytes.Equal(recs[j], wantRecs[j]) {
				continue
			}
			line, whole := bytes.CutSuffix(recs[j], []byte("\n"))
			if c, err := cellOf[i](line); whole && err == nil && c == sp.CellAt(j) {
				t.Skipf("record %d is another canonical record of its cell", j)
			}
			break
		}

		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		id := sp.ID()
		paths := [2]string{st.ResultsPath(id), st.TrajectoryPath(id)}
		mgr := NewManager(st, nil, 1)
		if adopt {
			plantReplica(t, mgr, sp, files[0], files[1])
			_, _, err = mgr.Adopt(sp)
		} else if _, _, err = st.CreateJob(sp); err == nil {
			for k, path := range paths {
				if err = os.WriteFile(path, files[k], 0o644); err != nil {
					break
				}
			}
			if err == nil {
				err = mgr.Resume()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, mgr, id, StatusDone)
		mgr.Close()
		if n := mgr.Stats().CellsAppended; n != 0 && bytes.Equal(files[0], want[0]) && bytes.Equal(files[1], want[1]) {
			t.Fatalf("the undamaged pair appended %d cells (adopt %v)", n, adopt)
		}
		for k, path := range paths {
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[k]) {
				t.Fatalf("%s after resume (adopt %v):\n%q\nwant\n%q", filepath.Base(path), adopt, got, want[k])
			}
		}
	})
}
