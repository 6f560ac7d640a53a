package sched_test

// Storage/replication performance artifact: with BENCH_OUT set, this
// test measures the replication push path and the read fan-out against
// a real two-daemon pair and writes the latencies as JSON (committed as
// BENCH_store.json at the repo root), so the durable-plane trajectory
// is tracked across PRs alongside the scheduler bench.

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/sweepd"
)

type storeBench struct {
	// PushMS is one synchronous Replicate call: build the wire body from
	// the leader's checkpoint, POST it, and have the receiver verify
	// every line and commit the replica atomically.
	PushMS float64 `json:"push_ms"`
	// LeaderReadMS / ReplicaReadMS are client-observed GET /results
	// round trips against the primary copy and the replica copy of the
	// same job — the read fan-out's price relative to the leader.
	LeaderReadMS  float64 `json:"leader_read_ms"`
	ReplicaReadMS float64 `json:"replica_read_ms"`
	// NotModifiedMS is a conditional GET answered 304 from the replica:
	// the steady-state poll cost once a client holds the ETag.
	NotModifiedMS float64 `json:"not_modified_ms"`
	// Size of the artifact being pushed and served.
	Cells           int    `json:"cells"`
	CheckpointBytes int    `json:"checkpoint_bytes"`
	GeneratedAt     string `json:"generated_at"`
}

// TestBenchStore writes BENCH_store.json when BENCH_OUT names the
// output path; without it the test is a no-op skip so the regular suite
// never pays for the measurement.
func TestBenchStore(t *testing.T) {
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		t.Skip("set BENCH_OUT=<path> to measure and write BENCH_store.json")
	}

	sp := sweepd.Spec{
		N:      16,
		Alphas: []float64{0.3, 0.5, 1, 2, 5},
		Ks:     []int{2, 3, 1000},
		Seeds:  4, // 60 cells
	}
	sp.Normalize()

	leader := newSchedDaemon(t, 4)
	follower := newSchedDaemon(t, 2, leader.srv.URL)
	waitMesh(t, leader, follower)

	job, _, err := leader.mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	job = waitDone(t, leader.mgr, job.ID)
	// The finish hook races this measurement with its own async push;
	// wait it out, drop the copy, and measure a clean synchronous push.
	waitReplica(t, job.ID, follower)
	if err := follower.rs.Delete(job.ID); err != nil {
		t.Fatal(err)
	}

	// A dedicated replicator with a static target: the wired one would
	// consult the gossip replica table, which can still advertise the
	// just-deleted copy and skip the push as deficit-free.
	rp := sweepd.NewReplicator(sweepd.ReplicatorOptions{
		Store:  leader.store,
		Fanout: 1,
		Targets: func() []sweepd.MemberLoad {
			return []sweepd.MemberLoad{{URL: follower.srv.URL}}
		},
	})
	pushStart := time.Now()
	if err := rp.Replicate(job); err != nil {
		t.Fatal(err)
	}
	push := time.Since(pushStart)
	if st := rp.Stats(); st.Pushed != 1 {
		t.Fatalf("measured push stats = %+v, want exactly one push", st)
	}
	waitReplica(t, job.ID, follower)

	timeGet := func(base string, header map[string]string, wantStatus int) time.Duration {
		req, err := http.NewRequest(http.MethodGet, base+"/sweeps/"+job.ID+"/results", nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range header {
			req.Header.Set(k, v)
		}
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		elapsed := time.Since(start)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s/sweeps/%s/results = %d, want %d", base, job.ID, resp.StatusCode, wantStatus)
		}
		return elapsed
	}
	leaderRead := timeGet(leader.srv.URL, nil, http.StatusOK)
	replicaRead := timeGet(follower.srv.URL, nil, http.StatusOK)

	resp, err := http.Get(follower.srv.URL + "/sweeps/" + job.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("replica read carried no ETag")
	}
	notModified := timeGet(follower.srv.URL, map[string]string{"If-None-Match": etag}, http.StatusNotModified)

	ck, err := os.ReadFile(leader.store.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	res := storeBench{
		PushMS:          float64(push.Microseconds()) / 1000,
		LeaderReadMS:    float64(leaderRead.Microseconds()) / 1000,
		ReplicaReadMS:   float64(replicaRead.Microseconds()) / 1000,
		NotModifiedMS:   float64(notModified.Microseconds()) / 1000,
		Cells:           sp.NumCells(),
		CheckpointBytes: len(ck),
		GeneratedAt:     time.Now().UTC().Format(time.RFC3339),
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: push %.1fms, leader read %.1fms, replica read %.1fms, 304 %.1fms",
		out, res.PushMS, res.LeaderReadMS, res.ReplicaReadMS, res.NotModifiedMS)
}
