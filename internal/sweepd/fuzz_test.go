package sweepd

import (
	"bytes"
	"encoding/json"
	"maps"
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
		JobID: sp.ID(), Kernel: sp.KernelHash(), Generation: 1, Status: string(StatusDone),
		CheckpointLines: len(checkpoint), TrajectoryLines: len(sidecar), Spec: specJSON,
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
