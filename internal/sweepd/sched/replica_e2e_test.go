package sched_test

// End-to-end tests for replicated durable storage: a finished job's
// artifacts survive the leader's death — replica-served reads stay
// byte-identical, and a later adoption seeds from the local replica
// instead of tail-fetching over HTTP.

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sweepd"
	"repro/internal/sweepd/node"
)

// waitReplica steps the clock until each daemon's replica set holds job
// id. The leader pushes on its own goroutine, not on a tick, so the steps
// are probe intervals: each one waits for a probe round trip between
// every pair of members.
func waitReplica(t *testing.T, clk *fakeClock, id string, ds ...*daemon) {
	t.Helper()
	clk.stepUntil(t, node.DefaultConfig().ProbeInterval, 400, "the replica of "+id+" reaches every survivor", func() bool {
		for _, d := range ds {
			if !slices.Contains(d.Replicas.List(), id) {
				return false
			}
		}
		return true
	})
}

// getResults fetches /sweeps/{id}/results without following redirects,
// returning the response (closed) and body.
func getResults(t *testing.T, base, id string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/sweeps/"+id+"/results", nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// metricValue scrapes one counter from /metrics (0 when absent).
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				t.Fatalf("bad metric line %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestReplicaServesResultsAfterLeaderDeath is the kill-the-leader
// acceptance criterion: jobs finish on their leader, their artifacts
// replicate to both survivors, the leader dies — and a survivor serves
// the results byte-identically from its replica, with the same strong
// ETag the leader minted. Dialect sweeps ride the same replication
// unmodified.
func TestReplicaServesResultsAfterLeaderDeath(t *testing.T) {
	specs := []sweepd.Spec{
		{N: 16, Alphas: []float64{0.5, 1, 2}, Ks: []int{2, 1000}, Seeds: 4}, // 24 cells
		{Dialect: "swap", N: 14, Alphas: []float64{1}, Ks: []int{2, 3}, Seeds: 3, MaxRounds: 60, CycleCheckAfter: 60},
		{Graph: "grid-delete", N: 16, P: 0.2, Alphas: []float64{0.5, 1}, Ks: []int{2}, Seeds: 3},
	}

	clk := useFakeClock(t)
	a := newSchedDaemon(t, 4)
	b := newSchedDaemon(t, 2, a.url)
	c := newSchedDaemon(t, 2, a.url)
	waitMesh(t, clk, beat, a, b, c)

	type led struct {
		id              string
		leaderBody, raw []byte
		etag            string
	}
	var jobs []led
	for _, sp := range specs {
		sp.Normalize()
		job, _, err := a.Manager.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, a.Manager, job.ID)
		waitReplica(t, clk, job.ID, b, c)

		resp, leaderBody := getResults(t, a.url, job.ID, nil)
		if resp.StatusCode != http.StatusOK || len(leaderBody) == 0 {
			t.Fatalf("leader results = %d with %d bytes", resp.StatusCode, len(leaderBody))
		}
		etag := resp.Header.Get("ETag")
		if etag == "" {
			t.Fatal("leader served done results without an ETag")
		}
		raw, err := os.ReadFile(a.Store.ResultsPath(job.ID))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, led{job.ID, leaderBody, raw, etag})
	}

	a.kill()

	for _, j := range jobs {
		for _, survivor := range []*daemon{b, c} {
			resp, body := getResults(t, survivor.url, j.id, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("survivor %s results = %d", survivor.url, resp.StatusCode)
			}
			if !bytes.Equal(body, j.leaderBody) || !bytes.Equal(body, j.raw) {
				t.Fatalf("survivor %s serves %d bytes, leader served %d (checkpoint %d)",
					survivor.url, len(body), len(j.leaderBody), len(j.raw))
			}
			if got := resp.Header.Get("X-Sweep-Status"); got != string(sweepd.StatusDone) {
				t.Fatalf("survivor X-Sweep-Status = %q", got)
			}
			if got := resp.Header.Get("ETag"); got != j.etag {
				t.Fatalf("survivor ETag = %q, leader minted %q", got, j.etag)
			}
			// The validator a client cached from the leader revalidates
			// against the replica.
			resp, body = getResults(t, survivor.url, j.id, map[string]string{"If-None-Match": j.etag})
			if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
				t.Fatalf("survivor If-None-Match = %d with %d bytes, want 304 empty", resp.StatusCode, len(body))
			}
			if v := metricValue(t, survivor.url, "sweepd_replica_reads_total"); v < 1 {
				t.Fatalf("survivor %s sweepd_replica_reads_total = %v, want ≥ 1", survivor.url, v)
			}
		}
	}
}

// TestAdoptionSeedsFromLocalReplicaEndToEnd: a stale lease points at a
// dead leader for a job the survivors hold replicas of. The adopter must
// seed its copy from the local replica — no HTTP tail-fetch (the only
// candidate peer would 404 anyway) — and finish with both of its files
// byte-identical to the replica's without appending a cell, a trajectory
// spec's sidecar included.
func TestAdoptionSeedsFromLocalReplicaEndToEnd(t *testing.T) {
	for _, trajectories := range []bool{false, true} {
		sp := sweepd.Spec{
			N:            16,
			Alphas:       []float64{0.5, 1, 2},
			Ks:           []int{2, 1000},
			Seeds:        4, // 24 cells
			Trajectories: trajectories,
		}
		sp.Normalize()
		name := "plain"
		if trajectories {
			name = "trajectories"
		}
		t.Run(name, func(t *testing.T) {
			clk := useFakeClock(t)
			a := newSchedDaemon(t, 4)
			b := newSchedDaemon(t, 2, a.url)
			c := newSchedDaemon(t, 2, a.url)
			waitMesh(t, clk, beat, a, b, c)

			job, _, err := a.Manager.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, a.Manager, job.ID)
			waitReplica(t, clk, job.ID, b, c)
			a.kill()
			// Inject only once both survivors have found A down. A pull from A
			// still in flight would otherwise land after the injection and drop
			// the lease, which its owner A no longer lists.
			clk.stepUntil(t, beat, 30, "both survivors find the leader down", func() bool {
				return b.finds(a.url, "down") && c.finds(a.url, "down")
			})

			// Resurrect the lease as if the leader died mid-run: owner dead,
			// generation 1. Both survivors hold a verified replica, so whichever
			// wins the adoption election can seed without touching the network.
			lease := sweepd.JobLease{JobID: job.ID, Spec: sp, Owner: a.url, Generation: 1}
			for _, survivor := range []*daemon{b, c} {
				if !survivor.Registry.UpdateLease(lease) {
					t.Fatalf("lease injection rejected by %s", survivor.url)
				}
			}

			clk.stepUntil(t, beat, 60, "a survivor adopts", func() bool {
				return b.Scheduler.Stats().Adoptions+c.Scheduler.Stats().Adoptions > 0
			})
			adopter := c
			if b.Scheduler.Stats().Adoptions > 0 {
				adopter = b
			}
			if st := adopter.Scheduler.Stats(); st.ReplicaSeeds != 1 {
				t.Fatalf("adopter stats = %+v, want ReplicaSeeds=1 (adoption must not tail-fetch)", st)
			}

			// Seeded from a complete replica, the adopted job finishes without
			// recomputing — and its files match the replica's bytes.
			waitDone(t, adopter.Manager, job.ID)
			if n := adopter.Manager.Stats().CellsAppended; n != 0 {
				t.Fatalf("the adopted run appended %d of %d cells, want none", n, sp.NumCells())
			}
			files := [][2]string{{adopter.Store.ResultsPath(job.ID), adopter.Replicas.ResultsPath(job.ID)}}
			if trajectories {
				files = append(files, [2]string{adopter.Store.TrajectoryPath(job.ID), adopter.Replicas.TrajectoryPath(job.ID)})
			}
			for _, f := range files {
				adopted, err := os.ReadFile(f[0])
				if err != nil {
					t.Fatal(err)
				}
				replica, err := os.ReadFile(f[1])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(adopted, replica) {
					t.Fatalf("adopted %s differs from the replica it was seeded from (%d vs %d bytes)",
						filepath.Base(f[0]), len(adopted), len(replica))
				}
			}
		})
	}
}
