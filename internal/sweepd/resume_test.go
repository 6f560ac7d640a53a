package sweepd

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestResumeFromEveryPrefix holds resume to the canonical-order rule: from
// whatever bytes an earlier run (or anything else) left in the checkpoint
// — every clean cut, a torn tail, a damaged record, two records swapped, a
// padded record, a line past the grid — the job keeps the canonical prefix,
// recomputes or cache-serves the rest, and finishes with a checkpoint (and,
// for the trajectory twin, a sidecar damaged the same way) byte-identical
// to an uninterrupted run's. Once with no cache, once with a disk cache
// that already holds the whole grid.
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

		for _, p := range plants {
			for _, cached := range []bool{false, true} {
				name := fmt.Sprintf("trajectories=%v/%s/cached=%v", trajectories, p.name, cached)
				dir := t.TempDir()
				store, err := OpenStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := store.CreateJob(sp); err != nil {
					t.Fatal(err)
				}
				paths := [2]string{store.ResultsPath(id), store.TrajectoryPath(id)}
				for i, path := range paths {
					if recs := strings.SplitAfter(want[i], "\n"); len(recs) > 1 {
						if err := os.WriteFile(path, []byte(p.rewrite(recs[:n])), 0o644); err != nil {
							t.Fatal(err)
						}
					}
				}
				var cache *Cache
				if cached {
					// Fill the spill tier, then reopen it cold: every hit is a
					// disk promotion.
					cdir := filepath.Join(dir, "cache")
					fill, err := NewDiskCache(64, cdir)
					if err != nil {
						t.Fatal(err)
					}
					for i, rec := range strings.SplitAfter(want[0], "\n")[:n] {
						fill.Put(sp.KernelHash(), sp.CellAt(i), []byte(strings.TrimSuffix(rec, "\n")))
					}
					if cache, err = NewDiskCache(64, cdir); err != nil {
						t.Fatal(err)
					}
				}
				mgr := NewManager(store, cache, 2)
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
			}
		}
	}
}
