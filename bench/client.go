package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/ncgio"
	"repro/internal/sweepd"
)

// ops counts front-door operations and checks: attempted, and failed. A
// wrong byte, missing line, non-done trailer, unexpected status or
// redirect is a failure; the first few are kept for the report.
type ops struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
}

// check records one operation and reports whether it passed.
func (o *ops) check(ok bool, format string, args ...any) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if !ok {
		o.failed++
		if len(o.notes) < 8 {
			o.notes = append(o.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// newHTTPClient is one client's connection: requests are sequential, so
// at most one connection is ever busy. Redirects are never followed —
// the benchmark counts them.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport:     &http.Transport{MaxIdleConnsPerHost: 1},
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
}

// jobRun is everything the client saw of one job.
type jobRun struct {
	js        jobSpec
	client    int
	idx       int
	id        string
	leader    string // base URL of the member running the job
	forwarded bool
	posted    time.Time
	doneSeen  time.Time
	submitMS  float64
	firstMS   float64 // POST sent → first result byte
	jobMS     float64 // POST sent → done trailer
	readyMS   float64 // done trailer → a non-leader serves the replica (traced cluster pass)
	lines     [][]byte
	body      []byte // the followed stream, heartbeats dropped
	ok        bool
	info      sweepd.Job // GET /sweeps/{id} after the pass
}

// pass is one front-door run of a workload.
type pass struct {
	jobs  []*jobRun
	wall  time.Duration // first POST → last done trailer
	phase phase         // the same stretch, with the CPU the process used in it
	cells int           // cells of jobs that ended done
	alloc uint64        // bytes allocated by the process during the pass
}

func (p *pass) cellsPerS() float64 { return ratio(float64(p.cells), p.wall.Seconds()) }

// splitLines returns the non-empty lines of an NDJSON body (a follow
// stream may carry blank keep-alive lines).
func splitLines(body []byte) [][]byte {
	var out [][]byte
	for _, l := range bytes.Split(body, []byte("\n")) {
		if len(l) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// runJob drives one job through the front door: POST, follow the
// placement, tail the results to the done trailer.
func runJob(hc *http.Client, top *topology, o *ops, tr *tracer, jr *jobRun, jobNo int) {
	body, err := json.Marshal(jr.js.spec)
	if err != nil {
		panic(err)
	}
	root := tr.begin("job", jobNo, -1, -1)
	defer tr.end(root)
	jr.posted = time.Now()
	resp, err := hc.Post(top.entry().url+"/sweeps", "application/json", bytes.NewReader(body))
	if !o.check(err == nil, "submit: %v", err) {
		return
	}
	var job sweepd.Job
	derr := json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	submit := time.Since(jr.posted)
	jr.submitMS = ms(submit)
	tr.add("submit", jobNo, -1, root, jr.posted, submit)
	if !o.check(resp.StatusCode == http.StatusAccepted && derr == nil && job.ID == jr.js.spec.ID(),
		"submit: status %d, id %q, decode %v", resp.StatusCode, job.ID, derr) {
		return
	}
	jr.id = job.ID
	jr.leader = top.entry().url
	if placed := resp.Header.Get("X-Sweep-Placement"); placed != "" {
		jr.leader, jr.forwarded = placed, true
		o.check(resp.Header.Get("Location") == placed+"/sweeps/"+job.ID && top.byURL(placed) != nil,
			"forwarded submit: Location %q does not name member %q", resp.Header.Get("Location"), placed)
	}

	followStart := time.Now()
	resp, err = hc.Get(jr.leader + "/sweeps/" + jr.id + "/results?follow=1")
	if !o.check(err == nil, "follow: %v", err) {
		return
	}
	defer resp.Body.Close()
	if !o.check(resp.StatusCode == http.StatusOK, "follow %s at %s: status %d", jr.id, jr.leader, resp.StatusCode) {
		return
	}
	var buf bytes.Buffer
	chunk := make([]byte, 64<<10)
	for {
		n, rerr := resp.Body.Read(chunk)
		if n > 0 {
			if buf.Len() == 0 {
				jr.firstMS = ms(time.Since(jr.posted))
			}
			buf.Write(chunk[:n])
		}
		if rerr != nil {
			err = rerr
			break
		}
	}
	jr.doneSeen = time.Now()
	jr.jobMS = ms(jr.doneSeen.Sub(jr.posted))
	tr.add("follow", jobNo, -1, root, followStart, jr.doneSeen.Sub(followStart))
	status := resp.Trailer.Get("X-Sweep-Status")
	jr.lines = splitLines(buf.Bytes())
	jr.body = append(bytes.Join(jr.lines, []byte("\n")), '\n')
	jr.ok = o.check(err == io.EOF && status == "done" && len(jr.lines) == jr.js.spec.NumCells(),
		"follow %s: trailer %q, %d of %d lines, %v", jr.id, status, len(jr.lines), jr.js.spec.NumCells(), err)
}

// reader picks the member reads of this job go to: the daemon itself
// when solo, otherwise a member that is not the job's leader.
func reader(top *topology, jr *jobRun) *daemon {
	if len(top.members) == 1 {
		return top.entry()
	}
	for i, d := range top.members {
		if d.url == jr.leader {
			return top.members[(i+1+jr.idx%(len(top.members)-1))%len(top.members)]
		}
	}
	return top.entry()
}

// awaitReplica polls a non-leader until it answers GET /sweeps/{id}
// from its own replica, and reports how long that took.
func awaitReplica(hc *http.Client, top *topology, o *ops, jr *jobRun) time.Duration {
	if len(top.members) == 1 {
		return 0
	}
	start := time.Now()
	url := reader(top, jr).url + "/sweeps/" + jr.id
	ready := false
	for !ready && time.Since(start) < 10*time.Second {
		body, _, code := get(hc, url, "")
		var job sweepd.Job
		ready = code == http.StatusOK && json.Unmarshal(body, &job) == nil && job.Replica
		if !ready {
			time.Sleep(5 * time.Millisecond)
		}
	}
	o.check(ready, "replica of %s never appeared at %s", jr.id, url)
	return time.Since(start)
}

// runPass drives the closed loop: numClients clients, each submitting
// its stream's next spec as soon as the previous job is done. A client
// stops after limit jobs when limit > 0, otherwise at the first cycle
// boundary past the deadline.
func runPass(w *workload, top *topology, g gen, o *ops, tr *tracer, seconds float64, limit int) *pass {
	p := &pass{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	allocBefore := totalAlloc()
	cpuBefore := cpuSeconds()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var last time.Time
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			for idx := 0; ; idx++ {
				if limit > 0 && idx >= limit || limit == 0 && idx%w.cycle == 0 && !time.Now().Before(deadline) {
					return
				}
				jr := &jobRun{js: w.job(g, c, idx), client: c, idx: idx}
				mu.Lock()
				jobNo := len(p.jobs)
				p.jobs = append(p.jobs, jr)
				mu.Unlock()
				runJob(hc, top, o, tr, jr, jobNo)
				if !jr.ok {
					return // a broken stream: stop this client, the run is already failed
				}
				mu.Lock()
				p.cells += len(jr.lines)
				if jr.doneSeen.After(last) {
					last = jr.doneSeen
				}
				mu.Unlock()
				if tr != nil && len(top.members) > 1 {
					t0 := time.Now()
					d := awaitReplica(hc, top, o, jr)
					jr.readyMS = ms(d)
					tr.add("replica_wait", jobNo, -1, -1, t0, d)
				}
			}
		}(c)
	}
	wg.Wait()
	p.alloc = totalAlloc() - allocBefore
	if !last.IsZero() {
		p.wall = last.Sub(start)
		p.phase = phase{from: start, to: last, cpu: cpuSeconds() - cpuBefore}
	}
	return p
}

// verifyPass checks what the front door returned for every job of the
// pass, after the clock has stopped: each line decodes to the canonical
// cell of its grid position, the leader's plain read equals the followed
// stream, carries a strong ETag and revalidates with 304, the job
// snapshot agrees, and a trajectories job served a full sidecar.
func verifyPass(hc *http.Client, top *topology, o *ops, p *pass) {
	for _, jr := range p.jobs {
		if !jr.ok {
			continue
		}
		sp := jr.js.spec
		cells := sp.Cells()
		good := true
		for i, line := range jr.lines {
			rec, err := ncgio.UnmarshalCellResult(line)
			if err != nil || rec.Cell != cells[i] || rec.Result.Final == nil {
				good = false
				break
			}
		}
		o.check(good, "job %s: a served line is not the canonical record of its grid position", jr.id)

		base := jr.leader + "/sweeps/" + jr.id
		body, etag, code := get(hc, base+"/results", "")
		o.check(code == http.StatusOK && bytes.Equal(body, jr.body) && etag != "",
			"job %s: leader read status %d, etag %q, equal=%v", jr.id, code, etag, bytes.Equal(body, jr.body))
		_, etag2, code := get(hc, base+"/results", etag)
		o.check(code == http.StatusNotModified && etag2 == etag, "job %s: conditional read status %d", jr.id, code)

		body, _, code = get(hc, base, "")
		err := json.Unmarshal(body, &jr.info)
		o.check(code == http.StatusOK && err == nil && jr.info.Status == sweepd.StatusDone &&
			jr.info.Completed == sp.NumCells() && !jr.info.Finished.IsZero(),
			"job %s: snapshot status %d %q, %d cells", jr.id, code, jr.info.Status, jr.info.Completed)
		if sp.Trajectories {
			body, _, code = get(hc, base+"/trajectories", "")
			n := len(splitLines(body))
			o.check(code == http.StatusOK && n == sp.NumCells(), "job %s: sidecar status %d, %d lines", jr.id, code, n)
		}
	}
}

// get is one GET with an optional If-None-Match; it returns the body,
// the ETag and the status (0 on a transport error).
func get(hc *http.Client, url, ifNoneMatch string) ([]byte, string, int) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, "", 0
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, "", 0
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", 0
	}
	return body, resp.Header.Get("ETag"), resp.StatusCode
}

// reads holds the read phase's latencies and what it saw.
type reads struct {
	fullMS       []float64
	revalidateMS []float64
	summaryMS    []float64
	redirects    int
}

// readPhase runs after every job is done and replication has settled:
// sequential full reads of GET /sweeps/{id}/results, round-robin over
// the jobs, each against the job's reader member (the leader when solo,
// a replica holder when clustered) and each compared byte for byte with
// the followed stream. The replica's ETag must equal the leader's. With
// extra set it also times conditional reads and each job's first
// (unfrozen) summary.
func readPhase(hc *http.Client, top *topology, o *ops, p *pass, n int, extra bool) *reads {
	r := &reads{}
	var jobs []*jobRun
	etags := map[string]string{}
	for _, jr := range p.jobs {
		if !jr.ok {
			continue
		}
		awaitReplica(hc, top, o, jr)
		_, etags[jr.id], _ = get(hc, jr.leader+"/sweeps/"+jr.id+"/results", "")
		jobs = append(jobs, jr)
	}
	if len(jobs) == 0 {
		return r
	}
	budget := time.Now().Add(3 * time.Second)
	for i := 0; i < n && time.Now().Before(budget); i++ {
		jr := jobs[i%len(jobs)]
		url := reader(top, jr).url + "/sweeps/" + jr.id + "/results"
		t0 := time.Now()
		body, etag, code := get(hc, url, "")
		d := time.Since(t0)
		if code == http.StatusTemporaryRedirect {
			r.redirects++
		}
		if o.check(code == http.StatusOK && bytes.Equal(body, jr.body) && etag == etags[jr.id],
			"read %s at %s: status %d, etag %q vs leader %q", jr.id, url, code, etag, etags[jr.id]) {
			r.fullMS = append(r.fullMS, ms(d))
		}
		if !extra || i >= 200 {
			continue
		}
		t0 = time.Now()
		_, _, code = get(hc, url, etag)
		d = time.Since(t0)
		if o.check(code == http.StatusNotModified, "conditional read %s: status %d", jr.id, code) {
			r.revalidateMS = append(r.revalidateMS, ms(d))
		}
		if i >= len(jobs) {
			continue // a done job's summary is frozen after its first build
		}
		t0 = time.Now()
		body, _, code = get(hc, reader(top, jr).url+"/sweeps/"+jr.id+"/summary", "")
		d = time.Since(t0)
		var sum sweepd.SweepSummary
		if o.check(code == http.StatusOK && json.Unmarshal(body, &sum) == nil && sum.Cells == jr.js.spec.NumCells(),
			"summary %s: status %d, %d cells", jr.id, code, sum.Cells) {
			r.summaryMS = append(r.summaryMS, ms(d))
		}
	}
	return r
}
