package sweepd

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// testdata/kernel0 is a done SUM job of kernel version 0 (SumDelta summed
// over the interior of the view only), as the store of the last build that
// ran that version held it: spec.json has no kernel field, and
// results.jsonl is the three cells that version computed (no player ever
// moved at α = 0.1, k = 2).

// kernel0Store opens a store in a new directory holding the kernel-0
// fixture with the first lines records of its checkpoint, and returns it
// with the job's ID and those records.
func kernel0Store(t *testing.T, lines int) (*Store, string, []byte) {
	t.Helper()
	spec, err := os.ReadFile("testdata/kernel0/spec.json")
	if err != nil {
		t.Fatal(err)
	}
	results, err := os.ReadFile("testdata/kernel0/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := decodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Variant != "sum" || sp.Kernel != 0 {
		t.Fatalf("fixture spec %+v, want a SUM spec of kernel 0", sp)
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := sp.ID()
	if _, err := st.FS.CreateJob(id, spec); err != nil {
		t.Fatal(err)
	}
	end := 0
	for range lines {
		end += bytes.IndexByte(results[end:], '\n') + 1
	}
	if err := os.WriteFile(st.ResultsPath(id), results[:end], 0o644); err != nil {
		t.Fatal(err)
	}
	return st, id, results[:end]
}

// getResults reads GET /sweeps/{id}/results.
func getResults(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d, %v", resp.StatusCode, err)
	}
	return body
}

// A done kernel-0 job is served with its own bytes; the same grid submitted
// now is another job, of kernel 1, with other bytes.
func TestKernel0DoneJobServedAsStored(t *testing.T) {
	st, id, want := kernel0Store(t, 3)
	m := NewManager(st, NewCache(1024), 2)
	defer m.Close()
	if err := m.Resume(); err != nil {
		t.Fatal(err)
	}
	job := waitStatus(t, m, id, StatusDone)
	if job.Spec.Kernel != 0 || job.Completed != 3 || job.CacheHits != 0 {
		t.Fatalf("resumed job %+v, want kernel 0 with its 3 stored cells", job)
	}
	srv := httptest.NewServer(NewHandlerConfig(m, Config{}))
	defer srv.Close()
	if got := getResults(t, srv.URL, id); !bytes.Equal(got, want) {
		t.Fatalf("served\n%s\nstored\n%s", got, want)
	}

	sp := job.Spec
	sp.Kernel = 0
	now, _, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if now.ID == id || now.Spec.Kernel != kernels["sum"] {
		t.Fatalf("resubmitted as job %s of kernel %d, want a new job of kernel %d", now.ID, now.Spec.Kernel, kernels["sum"])
	}
	waitStatus(t, m, now.ID, StatusDone)
	if got := getResults(t, srv.URL, now.ID); bytes.Equal(got, want) {
		t.Fatal("kernel 1 computed kernel 0's bytes; the fixture no longer tells the versions apart")
	}
}

// An unfinished kernel-0 job is not computed on: it resumes as failed, its
// error names the kernel, and its done prefix stays readable.
func TestKernel0UnfinishedJobFails(t *testing.T) {
	st, id, want := kernel0Store(t, 2)
	m := NewManager(st, NewCache(1024), 2)
	defer m.Close()
	if err := m.Resume(); err != nil {
		t.Fatal(err)
	}
	job := waitJob(t, m, id, func(j Job) bool { return j.Status == StatusFailed })
	if !strings.Contains(job.Error, "kernel 0") || job.Completed != 2 {
		t.Fatalf("failed job %+v, want its error to name kernel 0 and 2 completed cells", job)
	}
	srv := httptest.NewServer(NewHandlerConfig(m, Config{}))
	defer srv.Close()
	if got := getResults(t, srv.URL, id); !bytes.Equal(got, want) {
		t.Fatalf("served\n%s\nstored prefix\n%s", got, want)
	}
}

// The kernel is not a knob: a spec naming a kernel its variant does not
// run here is a bad request, and naming the current one is the default.
func TestSubmitRefusesForeignKernel(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(st, NewCache(1024), 2)
	defer m.Close()
	srv := httptest.NewServer(NewHandlerConfig(m, Config{}))
	defer srv.Close()
	for _, c := range []struct {
		body string
		want int
	}{
		{`{"variant":"sum","kernel":7,"n":6,"alphas":[1],"ks":[2],"seeds":1}`, http.StatusBadRequest},
		{`{"kernel":1,"n":6,"alphas":[1],"ks":[2],"seeds":1}`, http.StatusBadRequest},
		{`{"variant":"sum","kernel":1,"n":6,"alphas":[1],"ks":[2],"seeds":1}`, http.StatusAccepted},
		{`{"variant":"sum","n":6,"alphas":[1],"ks":[2],"seeds":1}`, http.StatusOK}, // the same job
	} {
		resp, err := http.Post(srv.URL+"/sweeps", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("POST %s: status %d (%s), want %d", c.body, resp.StatusCode, msg, c.want)
		}
		if c.want == http.StatusBadRequest && !strings.Contains(string(msg), "kernel") {
			t.Errorf("POST %s: refusal %q does not name the kernel", c.body, msg)
		}
	}
}

// A member refuses a lease of a kernel it does not run, so the leader
// computes those cells itself.
func TestPeerRefusesKernel0Lease(t *testing.T) {
	spec, err := os.ReadFile("testdata/kernel0/spec.json")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := decodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(st, NewCache(1024), 2)
	defer m.Close()
	srv := httptest.NewServer(NewHandlerConfig(m, Config{}))
	defer srv.Close()
	resp := postLease(t, srv.URL, LeaseRequest{Spec: sp, Start: 0, End: 1})
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "kernel 0") {
		t.Fatalf("kernel-0 lease: status %d (%s), want 400 naming kernel 0", resp.StatusCode, msg)
	}
}
