package sweepd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/sweepd/store"
)

// TestResumeFromEveryPrefix holds resume to the canonical-order rule: from
// whatever bytes an earlier run (or anything else) left in the checkpoint
// — every clean cut, a torn tail, a blank line between records, a damaged
// record, two records swapped, a padded record, a line past the grid — the
// job keeps the canonical prefix, recomputes or cache-serves the rest, and
// finishes with a checkpoint byte-identical to an uninterrupted run's. The
// trajectory twin damages both its files the same way, or one of them
// alone: both finish byte-identical, and the finished job's replica body
// passes VerifyReplica. Once with no cache, once beside a finished job of
// the same kernel whose checkpoint holds the whole grid: every cell past
// the surviving prefix is then read from that checkpoint.
func TestResumeFromEveryPrefix(t *testing.T) {
	for _, trajectories := range []bool{false, true} {
		sp := Spec{N: 10, Alphas: []float64{1, 2}, Ks: []int{2, 3}, Seeds: 2, Trajectories: trajectories}
		sp.Normalize()
		id, n := sp.ID(), sp.NumCells()

		refStore, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		refMgr := NewManager(refStore, nil, 2)
		runDoneJob(t, refMgr, sp)
		refMgr.Close()
		read := func(path string) string {
			data, err := os.ReadFile(path)
			if err != nil && (trajectories || !os.IsNotExist(err)) { // only a trajectory job has a sidecar
				t.Fatal(err)
			}
			return string(data)
		}
		want := [2]string{read(refStore.ResultsPath(id)), read(refStore.TrajectoryPath(id))}
		superset := Spec{N: sp.N, Alphas: sp.Alphas, Ks: sp.Ks, Seeds: sp.Seeds + 1}
		superset.Normalize()
		supersetBytes := canonicalBytes(t, superset)
		if got := strings.Count(want[0], "\n"); got != n {
			t.Fatalf("reference checkpoint has %d records, want %d", got, n)
		}

		// A plant rewrites a file's records (each with its newline); survive
		// is how many leading records the canonical-order rule keeps.
		type plant struct {
			name    string
			rewrite func(recs []string) string
			survive int
		}
		join := func(recs ...string) string { return strings.Join(recs, "") }
		var plants []plant
		for cut := 0; cut <= n; cut++ {
			plants = append(plants, plant{fmt.Sprintf("cut after %d", cut),
				func(recs []string) string { return join(recs[:cut]...) }, cut})
		}
		plants = append(plants,
			plant{"torn tail", func(recs []string) string { return join(recs[:3]...) + recs[3][:len(recs[3])/2] }, 3},
			plant{"blank line between records", func(recs []string) string { return join(recs[:3]...) + "\n" + join(recs[3:]...) }, 3},
			plant{"damaged middle record", func(recs []string) string {
				return join(recs[:2]...) + `{"alpha":1,"k":` + "\n" + join(recs[3:]...)
			}, 2},
			plant{"two records swapped", func(recs []string) string {
				return join(recs[:4]...) + recs[5] + recs[4] + join(recs[6:]...)
			}, 4},
			plant{"record padded with spaces", func(recs []string) string {
				return join(recs[:5]...) + "  " + recs[5] + join(recs[6:]...)
			}, 5},
			plant{"whole line past the grid", func(recs []string) string { return join(recs...) + recs[n-1] }, n},
		)

		// A trajectory job's plant damages both files, then each one alone.
		type damage struct {
			plant
			files []int
		}
		var damages []damage
		for _, p := range plants {
			damages = append(damages, damage{p, []int{0, 1}})
			if trajectories {
				damages = append(damages, damage{p, []int{0}}, damage{p, []int{1}})
			}
		}

		for _, p := range damages {
			for _, cached := range []bool{false, true} {
				name := fmt.Sprintf("trajectories=%v/%s/files %v/cached=%v", trajectories, p.name, p.files, cached)
				dir := t.TempDir()
				st, err := OpenStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := st.CreateJob(sp); err != nil {
					t.Fatal(err)
				}
				paths := [2]string{st.ResultsPath(id), st.TrajectoryPath(id)}
				for i, path := range paths {
					if recs := strings.SplitAfter(want[i], "\n"); len(recs) > 1 {
						data := want[i]
						if slices.Contains(p.files, i) {
							data = p.rewrite(recs[:n])
						}
						if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
							t.Fatal(err)
						}
					}
				}
				var cache *Cache
				if cached {
					// A finished job of the kernel, never trajectories (so of
					// another kernel when sp collects them).
					if _, _, err := st.CreateJob(superset); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(st.ResultsPath(superset.ID()), supersetBytes, 0o644); err != nil {
						t.Fatal(err)
					}
					cache = NewCache(64)
				}
				mgr := NewManager(st, cache, 2)
				if err := mgr.Resume(); err != nil {
					t.Fatal(err)
				}
				job := waitStatus(t, mgr, id, StatusDone)
				mgr.Close()

				for i, path := range paths {
					if got := read(path); got != want[i] {
						t.Errorf("%s: %s differs from the uninterrupted run's (%d vs %d bytes)",
							name, filepath.Base(path), len(got), len(want[i]))
					}
				}
				if job.Completed != job.Total {
					t.Errorf("%s: completed %d of %d", name, job.Completed, job.Total)
				}
				past := n - p.survive
				if got := mgr.Stats().CellsAppended; got != uint64(past) {
					t.Errorf("%s: appended %d cells, want the %d past the surviving prefix", name, got, past)
				}
				wantHits := 0
				if cached && !trajectories { // trajectory jobs bypass the cache
					wantHits = past
				}
				if job.CacheHits != wantHits {
					t.Errorf("%s: %d cache hits, want %d", name, job.CacheHits, wantHits)
				}
				body, err := NewReplicator(ReplicatorOptions{Store: st}).buildBody(job)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				head, rest, _ := strings.Cut(string(body), "\n")
				var m store.ReplicaManifest
				if err := json.Unmarshal([]byte(head), &m); err != nil {
					t.Fatal(err)
				}
				if _, _, err := VerifyReplica(id, m, []byte(rest)); err != nil {
					t.Errorf("%s: the finished job's replica is refused: %v", name, err)
				}
			}
		}
	}
}
