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

// FuzzVerifyReplica feeds arbitrary bytes after an honest manifest of a
// fixed 4-cell spec (with and without a sidecar). It must not panic, and
// whatever it accepts is stored byte for byte, so an accepted body is
// exactly the grid's records, each followed by one '\n', cut where the
// checkpoint ends — the two halves concatenate back to the input — and
// each record is the canonical encoding of what it decodes to.
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
	honest := join(tck, tside)
	// The property below is vacuous unless honest bodies pass.
	if _, _, err := VerifyReplica(plain.JobID, plain, join(ck)); err != nil {
		f.Fatal(err)
	}
	if _, _, err := VerifyReplica(traj.JobID, traj, honest); err != nil {
		f.Fatal(err)
	}
	f.Add(join(ck), false)
	f.Add(honest, true)
	f.Add(bytes.ReplaceAll(honest, []byte("\n"), []byte(" \n  ")), true)                   // padded
	f.Add(bytes.ReplaceAll(honest, []byte("\n"), []byte("\n\n")), true)                    // blank-separated
	f.Add(join(tck, [][]byte{[]byte("\n")}, tside), true)                                  // blank line at the cut
	f.Add(join(tck[:3], tside), true)                                                      // one record short
	f.Add(join([][]byte{tck[1], tck[0]}, tck[2:], tside), true)                            // two records swapped
	f.Add(join(tck, [][]byte{tside[1], tside[0]}, tside[2:]), true)                        // two sidecar records swapped
	f.Add(join(ck, tside), false)                                                          // sidecar for a spec without one
	f.Add(append(bytes.Clone(honest), `{"alpha":1`...), true)                              // torn tail
	f.Add(join(tck, tside, tside[3:]), true)                                               // a whole line too many
	f.Add(bytes.Replace(join(ck), []byte(`{"alpha"`), []byte(`{"x":1,"alpha"`), 1), false) // extra field
	// The first record (α = 1) under every respelling of strict_test.go's table.
	variants := nonCanonical(f, bytes.TrimSuffix(ck[0], []byte("\n")))
	for _, name := range slices.Sorted(maps.Keys(variants)) {
		f.Add(join([][]byte{variants[name], []byte("\n")}, ck[1:]), false)
		f.Add(join([][]byte{variants[name], []byte("\n")}, tck[1:], tside), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, trajectories bool) {
		m, wantTraj := plain, 0
		if trajectories {
			m, wantTraj = traj, 4
		}
		checkpoint, trajectory, err := VerifyReplica(m.JobID, m, body)
		if err != nil {
			return
		}
		if !bytes.Equal(append(bytes.Clone(checkpoint), trajectory...), body) {
			t.Fatalf("accepted halves (%d + %d bytes) are not the %d-byte input", len(checkpoint), len(trajectory), len(body))
		}
		for name, half := range map[string]struct {
			data []byte
			want int
		}{"checkpoint": {checkpoint, 4}, "trajectory": {trajectory, wantTraj}} {
			lines := bytes.SplitAfter(half.data, []byte{'\n'})
			if last := lines[len(lines)-1]; len(last) != 0 {
				t.Fatalf("accepted %s ends in a torn tail %q", name, last)
			}
			lines = lines[:len(lines)-1]
			if len(lines) != half.want {
				t.Fatalf("accepted %s has %d lines, want %d", name, len(lines), half.want)
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
// of its two doors: written to disk and resumed, or, with adopt set, given
// to Manager.Adopt on a fresh store as an adoption's seed. Either way both
// files must end byte-identical to the undamaged pair, and an undamaged
// pair must append no cell. The files carry no checksum, so damage that
// leaves another canonical record of the same cell in place of the first
// one it touches is not damage any reader can see; such an input is
// skipped.
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
			_, _, err = mgr.Adopt(sp, files[0], files[1])
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
