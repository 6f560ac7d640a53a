package sweepd

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"
)

func TestLatencyHistBucketing(t *testing.T) {
	var h latencyHist
	h.observe(0.0004) // ≤ 0.001
	h.observe(0.003)  // ≤ 0.005
	h.observe(0.003)  // ≤ 0.005
	h.observe(45)     // ≤ 60
	h.observe(1e9)    // +Inf overflow
	if h.n != 5 {
		t.Fatalf("n = %d, want 5", h.n)
	}
	if h.counts[0] != 1 {
		t.Fatalf("first bucket = %d, want 1", h.counts[0])
	}
	if h.counts[2] != 2 {
		t.Fatalf("0.005 bucket = %d, want 2", h.counts[2])
	}
	if h.counts[len(latencyBuckets)-1] != 1 {
		t.Fatalf("60s bucket = %d, want 1", h.counts[len(latencyBuckets)-1])
	}
	if h.counts[len(latencyBuckets)] != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", h.counts[len(latencyBuckets)])
	}
	var total uint64
	for _, c := range h.counts {
		total += c
	}
	if total != h.n {
		t.Fatalf("bucket counts sum to %d, want %d", total, h.n)
	}
}

// TestJobLatencyHistogramServed: a finished job exposes a per-cell
// wall-time histogram whose count equals its locally computed cells,
// rendered as valid Prometheus histogram text in /metrics.
func TestJobLatencyHistogramServed(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, nil, 4)
	defer mgr.Close()
	srv := httptest.NewServer(NewHandlerConfig(mgr, Config{}))
	defer srv.Close()

	sp := Spec{N: 12, Alphas: []float64{0.5, 1}, Ks: []int{2, 1000}, Seeds: 2}
	sp.Normalize()
	job, _, err := mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, mgr, job.ID, StatusDone)

	lats := mgr.JobLatencies()
	if len(lats) != 1 || lats[0].ID != job.ID {
		t.Fatalf("JobLatencies = %+v, want one entry for %s", lats, job.ID)
	}
	jl := lats[0]
	if jl.Count != uint64(done.Total) {
		t.Fatalf("histogram count = %d, want %d (every cell computed locally)", jl.Count, done.Total)
	}
	if jl.Sum <= 0 {
		t.Fatalf("histogram sum = %g, want > 0", jl.Sum)
	}
	if len(jl.Counts) != len(jl.Buckets)+1 {
		t.Fatalf("%d counts for %d buckets", len(jl.Counts), len(jl.Buckets))
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	countRe := regexp.MustCompile(`(?m)^sweepd_job_cell_seconds_count\{job="` + job.ID + `"\} (\d+)$`)
	m := countRe.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metrics missing histogram count series:\n%s", text)
	}
	if n, _ := strconv.Atoi(m[1]); n != done.Total {
		t.Fatalf("metrics count = %s, want %d", m[1], done.Total)
	}
	// Buckets must be cumulative and end at +Inf == count.
	bucketRe := regexp.MustCompile(`(?m)^sweepd_job_cell_seconds_bucket\{job="` + job.ID + `",le="([^"]+)"\} (\d+)$`)
	prev := int64(-1)
	var last string
	var lastVal int64
	for _, bm := range bucketRe.FindAllStringSubmatch(text, -1) {
		v, _ := strconv.ParseInt(bm[2], 10, 64)
		if v < prev {
			t.Fatalf("bucket le=%q count %d not cumulative (prev %d)", bm[1], v, prev)
		}
		prev, last, lastVal = v, bm[1], v
	}
	if last != "+Inf" || lastVal != int64(done.Total) {
		t.Fatalf("final bucket le=%q=%d, want +Inf=%d", last, lastVal, done.Total)
	}
}

// TestJobLatencyCacheHitsNotObserved: cells served from the cache are
// not wall-time observations — a fully cache-served rerun adds nothing.
func TestJobLatencyCacheHitsNotObserved(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, NewCache(1024), 2)
	defer mgr.Close()

	a := Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 3}
	a.Normalize()
	jobA, _, err := mgr.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr, jobA.ID, StatusDone)

	// Superset grid: the overlap is cache-served, only the new cells are
	// computed (and observed).
	b := Spec{N: 10, Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 3}
	b.Normalize()
	jobB, _, err := mgr.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	doneB := waitStatus(t, mgr, jobB.ID, StatusDone)
	if doneB.CacheHits == 0 {
		t.Fatal("no cache hits; test premise broken")
	}
	for _, jl := range mgr.JobLatencies() {
		if jl.ID != jobB.ID {
			continue
		}
		want := uint64(doneB.Total - doneB.CacheHits)
		if jl.Count != want {
			t.Fatalf("job B observed %d cells, want %d (total %d - %d cache hits)",
				jl.Count, want, doneB.Total, doneB.CacheHits)
		}
		return
	}
	t.Fatal("job B has no histogram")
}

// TestLatencyBucketsAscending guards the metrics contract: bucket
// bounds must be strictly ascending.
func TestLatencyBucketsAscending(t *testing.T) {
	for i := 1; i < len(latencyBuckets); i++ {
		if latencyBuckets[i] <= latencyBuckets[i-1] {
			t.Fatalf("latencyBuckets[%d]=%g ≤ latencyBuckets[%d]=%g",
				i, latencyBuckets[i], i-1, latencyBuckets[i-1])
		}
	}
}
