package sweepd

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/sweepd/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current output")

// metricsVolatile matches the samples whose values are wall-clock
// measurements; the golden keeps their names and labels and masks the
// value.
var metricsVolatile = regexp.MustCompile(
	`(?m)^(sweepd_uptime_seconds|sweepd_cells_per_second|sweepd_job_cell_seconds_[a-z]+\{[^}]*\}) .*$`)

// goldenMembership reports a distinct value per ClusterStats field.
type goldenMembership struct{ fakeLeaseMembership }

func (*goldenMembership) ClusterStats() ClusterStats {
	return ClusterStats{
		MembersByState: map[string]int{"alive": 51, "suspect": 52, "down": 53},
		Probes:         54, ProbeFailures: 55, Backoffs: 56, Readmissions: 57,
		Tombstones: 58, Tombstoned: 59, Leases: 60,
	}
}

// TestMetricsGolden pins the whole /metrics body of a fully wired
// handler — series order, every HELP/TYPE line, labels, and every value
// that is not a wall-clock measurement — so the renderer can be
// restructured without moving a byte scrapers see. Every counter carries
// a distinct value so a series wired to the wrong field shows up.
func TestMetricsGolden(t *testing.T) {
	fm := &goldenMembership{}
	fm.members = []MemberInfo{
		{URL: "http://self:1", State: "alive", Self: true},
		{URL: "http://a:1", State: "suspect"},
		{URL: "http://b:1", State: "down"},
	}
	mgr, h, srv, _ := newReplicaRig(t, Config{
		PeerStats:    func() PeerStats { return PeerStats{Peers: 2, LeasesIssued: 11, LeaseFailures: 12, RemoteCells: 13} },
		Cluster:      fm,
		Sched:        &fakeSubmitter{},
		SchedStats:   func() SchedStats { return SchedStats{23, 24, 25} },
		ReplicaStats: func() ReplicaStats { return ReplicaStats{Pushed: 31, PushFailures: 32, BytesPushed: 33} },
	})
	runDoneJob(t, mgr, Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2})
	mgr.Wait() // the runner has handed its worker tokens back
	if err := mgr.Replicas().Put(store.ReplicaManifest{JobID: "00000000000000aa"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	h.throttled.Store(41)
	h.quotaRejections.Store(42)
	h.leasesServed.Store(43)
	h.leaseCellsServed.Store(44)
	h.replicasReceived.Store(45)
	h.replicaBytesReceived.Store(46)
	h.replicaReads.Store(47)
	h.replicaRedirects.Store(48)
	h.notModified.Store(49)

	resp, body := getRaw(t, srv.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if got, want := resp.Header.Get("Content-Type"), "text/plain; version=0.0.4; charset=utf-8"; got != want {
		t.Fatalf("Content-Type = %q, want %q", got, want)
	}
	got := metricsVolatile.ReplaceAll(body, []byte("$1 MASKED"))

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("/metrics body moved (rerun with -update only if the change is intended)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
