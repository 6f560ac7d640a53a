package main

// End-to-end tests of the real ncg-server process, holding only what
// needs it: flags reaching node.Config, main's JSON logger, SIGTERM's
// exit 0 after the flush, and a kill -9 no in-process Close can imitate.
// What the daemon does in-process is held by internal/sweepd's tests.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/sweepd"
)

// bin is the ncg-server binary TestMain builds.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ncg-server-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "ncg-server")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// proc is one ncg-server process over its own -data directory.
type proc struct {
	cmd    *exec.Cmd
	data   string
	url    string        // from its listening record; "" if it exited first
	exited chan struct{} // closed once the process is reaped and err set
	err    error
	mu     sync.Mutex
	log    []string // its stderr lines
}

// start runs ncg-server with args and returns once the process has
// logged the address it listens on, or has exited. The test's cleanup
// SIGKILLs and reaps it.
func start(t *testing.T, args ...string) *proc {
	t.Helper()
	p := &proc{data: t.TempDir(), exited: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-data", p.data}, args...)...)
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.cmd.Process.Kill() //nolint:errcheck // it may have exited already
		<-p.exited
	})
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			var rec struct{ Msg, Addr string }
			if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg == "ncg-server listening" {
				addr <- rec.Addr
			}
			p.mu.Lock()
			p.log = append(p.log, sc.Text())
			p.mu.Unlock()
		}
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	select {
	case a := <-addr:
		p.url = "http://" + a
	case <-p.exited:
	case <-time.After(20 * time.Second):
		t.Fatalf("ncg-server %v logged no listening record:\n%s", args, p.logs())
	}
	return p
}

func (p *proc) logs() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.log, "\n")
}

// member starts a cluster member, which must know its URL before it
// boots: it listens on, and advertises, a loopback port reserved by
// listening on :0 and closing. Should another process take the port
// first, the member exits with a "listening" record and one retry takes
// a new port.
func member(t *testing.T, args ...string) *proc {
	t.Helper()
	for retried := false; ; retried = true {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		p := start(t, slices.Concat([]string{"-addr", addr, "-advertise", "http://" + addr}, args)...)
		if p.url != "" {
			return p
		}
		if retried || !strings.Contains(p.logs(), `"msg":"listening"`) {
			t.Fatalf("member exited before listening (%v):\n%s", p.err, p.logs())
		}
	}
}

// eventually polls cond until it holds. Membership, leases and metrics
// have no request to block on; every job wait is a follow instead.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// do sends one request, following redirects, and fails the test unless
// it answers want. header holds key, value pairs.
func do(t *testing.T, method, url, body string, want int, header ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s = %d, want %d: %s", method, url, resp.StatusCode, want, data)
	}
	return resp, data
}

// doJSON is do with the answer decoded into v.
func doJSON(t *testing.T, method, url, body string, want int, v any) {
	t.Helper()
	if _, data := do(t, method, url, body, want); json.Unmarshal(data, v) != nil {
		t.Fatalf("%s %s answered %s", method, url, data)
	}
}

func submit(t *testing.T, base, spec string) string {
	t.Helper()
	var job sweepd.Job
	doJSON(t, http.MethodPost, base+"/sweeps", spec, http.StatusAccepted, &job)
	return job.ID
}

// follow blocks on the job's ?follow=1 stream until the job ends, checks
// that it ended done, and returns its result lines. Cell lines hold no
// white space, and the stream's heartbeats are bare newlines.
func follow(t *testing.T, base, id string) int {
	t.Helper()
	resp, body := do(t, http.MethodGet, base+"/sweeps/"+id+"/results?follow=1", "", http.StatusOK)
	if st := resp.Trailer.Get("X-Sweep-Status"); st != string(sweepd.StatusDone) {
		t.Fatalf("follow of %s at %s ended %q", id, base, st)
	}
	return len(strings.Fields(string(body)))
}

// metric reads one unlabelled sample from /metrics; an absent one reads 0.
func metric(t *testing.T, base, name string) float64 {
	t.Helper()
	_, body := do(t, http.MethodGet, base+"/metrics", "", http.StatusOK)
	_, sample, _ := strings.Cut(string(body), "\n"+name+" ")
	sample, _, _ = strings.Cut(sample, "\n")
	v, _ := strconv.ParseFloat(sample, 64)
	return v
}

func members(t *testing.T, base string) (mr sweepd.MembersResponse) {
	t.Helper()
	doJSON(t, http.MethodGet, base+"/peer/members", "", http.StatusOK, &mr)
	return mr
}

// TestLoneDaemon: a job runs through submit, follow, summary and purge,
// leaving its checkpoint as the only copy of its cells under -data;
// SIGTERM ends the process with exit 0; and every stderr line is a JSON
// record, none about fan-out.
func TestLoneDaemon(t *testing.T) {
	p := start(t, "-addr", "127.0.0.1:0", "-max-jobs", "16", "-rate", "200")
	if p.url == "" {
		t.Fatalf("exited before listening (%v):\n%s", p.err, p.logs())
	}
	id := submit(t, p.url, `{"n":10,"alphas":[1],"ks":[2],"seeds":2}`)
	if n := follow(t, p.url, id); n != 2 {
		t.Fatalf("followed %d lines, want 2", n)
	}
	var sum struct{ Groups []json.RawMessage }
	if doJSON(t, http.MethodGet, p.url+"/sweeps/"+id+"/summary", "", http.StatusOK, &sum); len(sum.Groups) != 1 {
		t.Fatalf("summary has %d groups, want 1", len(sum.Groups))
	}
	jobDir := filepath.Join(p.data, id) + string(filepath.Separator)
	err := filepath.WalkDir(p.data, func(path string, d fs.DirEntry, err error) error {
		if err == nil && (!d.IsDir() && !strings.HasPrefix(path, jobDir) || d.Name() == "cache") {
			t.Errorf("%s lies outside the job's store directory", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var purge struct{ Purged bool }
	if doJSON(t, http.MethodDelete, p.url+"/sweeps/"+id+"?purge=1", "", http.StatusOK, &purge); !purge.Purged {
		t.Fatal("the purge answered purged: false")
	}
	if _, err := os.Stat(filepath.Join(p.data, id)); !os.IsNotExist(err) {
		t.Fatalf("purged job's directory: %v", err)
	}

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-p.exited
	if p.err != nil {
		t.Fatalf("SIGTERM ended the daemon with %v:\n%s", p.err, p.logs())
	}
	for _, line := range p.log {
		if err := json.Unmarshal([]byte(line), new(map[string]any)); err != nil {
			t.Fatalf("stderr line %q is not a JSON object: %v", line, err)
		}
		if strings.Contains(line, "under-replicated") {
			t.Fatalf("a lone daemon logged fan-out: %s", line)
		}
	}
}

// TestClusterFailover: three members, 2 and 3 seeded on 1, mesh by hello
// and one-hop gossip. Job A finishes on 1 and replicates; 1 is kill -9'd
// while it leads job B; a survivor then serves A from its replica and
// adopts B, which ends with the full grid.
func TestClusterFailover(t *testing.T) {
	flags := []string{"-probe-interval", "500ms", "-adopt-after", "2s", "-replicas", "2", "-peer-lease", "2", "-workers", "1"}
	m1 := member(t, flags...)
	m2 := member(t, slices.Concat(flags, []string{"-peers", m1.url})...)
	m3 := member(t, slices.Concat(flags, []string{"-peers", m1.url})...)
	survivors := []*proc{m2, m3}

	eventually(t, "the mesh", func() bool {
		for _, p := range []*proc{m1, m2, m3} {
			others := slices.DeleteFunc(members(t, p.url).Members, func(m sweepd.MemberInfo) bool { return m.Self || m.State != "alive" })
			if len(others) != 2 || metric(t, p.url, "sweepd_peers") != 2 {
				return false
			}
		}
		return true
	})

	a := submit(t, m1.url, `{"n":12,"alphas":[0.5,1,2],"ks":[2,1000],"seeds":4}`)
	if n := follow(t, m1.url, a); n != 24 {
		t.Fatalf("job A: followed %d lines, want 24", n)
	}
	eventually(t, "A's replicas", func() bool {
		return metric(t, m2.url, "sweepd_replicas_received_total") >= 1 &&
			metric(t, m3.url, "sweepd_replicas_received_total") >= 1
	})
	resp, aBody := do(t, http.MethodGet, m1.url+"/sweeps/"+a+"/results", "", http.StatusOK)
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("the leader served A without an ETag")
	}

	const bCells = 5 * 3 * 40
	b := submit(t, m1.url, `{"n":100,"alphas":[0.3,0.5,1,2,5],"ks":[2,3,1000],"seeds":40}`)
	eventually(t, "B's lease at a survivor", func() bool {
		return slices.ContainsFunc(members(t, m2.url).Leases, func(l sweepd.JobLease) bool { return l.JobID == b })
	})
	m1.cmd.Process.Kill() //nolint:errcheck
	<-m1.exited
	ckpt, err := os.ReadFile(filepath.Join(m1.data, b, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(ckpt, []byte("\n")); n >= bCells {
		t.Fatalf("B finished (%d lines) before its leader was killed", n)
	}

	if _, body := do(t, http.MethodGet, m2.url+"/sweeps/"+a+"/results", "", http.StatusOK); !bytes.Equal(body, aBody) {
		t.Fatalf("a survivor serves A as %d bytes, the leader served %d", len(body), len(aBody))
	}
	do(t, http.MethodGet, m2.url+"/sweeps/"+a+"/results", "", http.StatusNotModified, "If-None-Match", etag)

	var adopter int
	eventually(t, "B's adoption", func() bool {
		adopter = slices.IndexFunc(survivors, func(p *proc) bool { return metric(t, p.url, "sweepd_sched_adoptions_total") >= 1 })
		return adopter >= 0
	})
	if n := follow(t, survivors[adopter].url, b); n != bCells {
		t.Fatalf("adopted B: followed %d lines, want %d", n, bCells)
	}
	if metric(t, m2.url, "sweepd_peer_leases_served_total")+metric(t, m3.url, "sweepd_peer_leases_served_total") < 1 {
		t.Fatal("no survivor served a lease")
	}
}
