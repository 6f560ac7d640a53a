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
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sweepd"
)

// waitReplica blocks until each daemon's replica set holds job id.
func waitReplica(t *testing.T, id string, ds ...*daemon) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for _, d := range ds {
		for {
			ids := d.rs.List()
			if slices.Contains(ids, id) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica of %s never reached %s (holds %v)", id, d.srv.URL, ids)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
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
// acceptance criterion: a job finishes on its leader, its artifacts
// replicate to both survivors, the leader dies — and a survivor serves
// the results byte-identically from its replica, with the same strong
// ETag the leader minted.
func TestReplicaServesResultsAfterLeaderDeath(t *testing.T) {
	sp := sweepd.Spec{
		N:      16,
		Alphas: []float64{0.5, 1, 2},
		Ks:     []int{2, 1000},
		Seeds:  4, // 24 cells
	}
	sp.Normalize()

	a := newSchedDaemon(t, 4)
	b := newSchedDaemon(t, 2, a.srv.URL)
	c := newSchedDaemon(t, 2, a.srv.URL)
	waitMesh(t, a, b, c)

	job, _, err := a.mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, a.mgr, job.ID)
	waitReplica(t, job.ID, b, c)

	resp, leaderBody := getResults(t, a.srv.URL, job.ID, nil)
	if resp.StatusCode != http.StatusOK || len(leaderBody) == 0 {
		t.Fatalf("leader results = %d with %d bytes", resp.StatusCode, len(leaderBody))
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("leader served done results without an ETag")
	}
	raw, err := os.ReadFile(a.store.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}

	a.kill()

	for _, survivor := range []*daemon{b, c} {
		resp, body := getResults(t, survivor.srv.URL, job.ID, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("survivor %s results = %d", survivor.srv.URL, resp.StatusCode)
		}
		if !bytes.Equal(body, leaderBody) || !bytes.Equal(body, raw) {
			t.Fatalf("survivor %s serves %d bytes, leader served %d (checkpoint %d)",
				survivor.srv.URL, len(body), len(leaderBody), len(raw))
		}
		if got := resp.Header.Get("X-Sweep-Status"); got != string(sweepd.StatusDone) {
			t.Fatalf("survivor X-Sweep-Status = %q", got)
		}
		if got := resp.Header.Get("ETag"); got != etag {
			t.Fatalf("survivor ETag = %q, leader minted %q", got, etag)
		}
		// The validator a client cached from the leader revalidates
		// against the replica.
		resp, body = getResults(t, survivor.srv.URL, job.ID, map[string]string{"If-None-Match": etag})
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("survivor If-None-Match = %d with %d bytes, want 304 empty", resp.StatusCode, len(body))
		}
		if v := metricValue(t, survivor.srv.URL, "sweepd_replica_reads_total"); v < 1 {
			t.Fatalf("survivor %s sweepd_replica_reads_total = %v, want ≥ 1", survivor.srv.URL, v)
		}
	}
}

// TestAdoptionSeedsFromLocalReplicaEndToEnd: a stale lease points at a
// dead leader for a job the survivors hold replicas of. The adopter
// must seed its copy from the local replica — no HTTP tail-fetch (the
// only candidate peer would 404 anyway) — and finish byte-identically.
func TestAdoptionSeedsFromLocalReplicaEndToEnd(t *testing.T) {
	sp := sweepd.Spec{
		N:      16,
		Alphas: []float64{0.5, 1, 2},
		Ks:     []int{2, 1000},
		Seeds:  4, // 24 cells
	}
	sp.Normalize()

	a := newSchedDaemon(t, 4)
	b := newSchedDaemon(t, 2, a.srv.URL)
	c := newSchedDaemon(t, 2, a.srv.URL)
	waitMesh(t, a, b, c)

	job, _, err := a.mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, a.mgr, job.ID)
	waitReplica(t, job.ID, b, c)
	a.kill()

	// Resurrect the lease as if the leader died mid-run: owner dead,
	// generation 1. Both survivors hold a verified replica, so whichever
	// wins the adoption election can seed without touching the network.
	lease := sweepd.JobLease{JobID: job.ID, Spec: sp, Owner: a.srv.URL, Generation: 1}
	for _, survivor := range []*daemon{b, c} {
		if !survivor.reg.UpdateLease(lease) {
			t.Fatalf("lease injection rejected by %s", survivor.srv.URL)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	var adopter *daemon
	for adopter == nil {
		for _, d := range []*daemon{b, c} {
			if d.sch.Stats().Adoptions > 0 {
				adopter = d
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no adoption: b=%+v c=%+v", b.sch.Stats(), c.sch.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := adopter.sch.Stats(); st.ReplicaSeeds != 1 {
		t.Fatalf("adopter stats = %+v, want ReplicaSeeds=1 (adoption must not tail-fetch)", st)
	}

	// Seeded from a complete replica, the adopted job finishes without
	// recomputing — and its primary checkpoint matches the replica bytes.
	waitDone(t, adopter.mgr, job.ID)
	adopted, err := os.ReadFile(adopter.store.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	replica, err := os.ReadFile(adopter.rs.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(adopted, replica) {
		t.Fatalf("adopted checkpoint differs from the replica it was seeded from (%d vs %d bytes)",
			len(adopted), len(replica))
	}
}
