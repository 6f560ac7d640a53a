package sweepd

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/ncgio"
)

func trajSpec() Spec {
	sp := Spec{N: 12, Alphas: []float64{0.5, 2}, Ks: []int{2, 1000}, Seeds: 2, Trajectories: true}
	sp.Normalize()
	return sp
}

// readTrajectories parses an NDJSON trajectory stream, skipping blanks.
func readTrajectories(t *testing.T, r io.Reader) []ncgio.TrajectoryRecord {
	t.Helper()
	var out []ncgio.TrajectoryRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		tr, err := ncgio.UnmarshalTrajectory(line)
		if err != nil {
			t.Fatalf("bad trajectory line %q: %v", line, err)
		}
		out = append(out, tr)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTrajectorySidecar: a trajectory job writes one sidecar record per
// computed cell, in canonical order, whose per-round sequence matches
// the checkpointed Rounds — and the endpoint serves it.
func TestTrajectorySidecar(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, NewCache(1024), 4)
	defer mgr.Close()
	srv := httptest.NewServer(NewHandlerConfig(mgr, Config{}))
	defer srv.Close()

	sp := trajSpec()
	job, _, err := mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr, job.ID, StatusDone)

	resp, err := http.Get(srv.URL + "/sweeps/" + job.ID + "/trajectories")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if st := resp.Header.Get("X-Sweep-Status"); st != string(StatusDone) {
		t.Fatalf("X-Sweep-Status = %q", st)
	}
	trs := readTrajectories(t, resp.Body)
	cells := sp.Cells()
	if len(trs) != len(cells) {
		t.Fatalf("sidecar has %d records, want %d", len(trs), len(cells))
	}
	results, err := store.LoadResults(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range trs {
		if tr.Cell() != cells[i] {
			t.Fatalf("record %d cell %+v out of canonical order (want %+v)", i, tr.Cell(), cells[i])
		}
		if len(tr.PerRound) == 0 {
			t.Fatalf("record %d has no per-round stats", i)
		}
		if got, want := len(tr.PerRound), results[i].Result.Rounds; got != want {
			t.Fatalf("record %d has %d rounds, checkpoint says %d", i, got, want)
		}
		if tr.PerRound[len(tr.PerRound)-1].Diameter != results[i].Result.FinalStats.Diameter {
			t.Fatalf("record %d final diameter disagrees with checkpoint", i)
		}
	}

	// A job that did not opt in has no sidecar and must say so.
	plain := Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 1}
	plain.Normalize()
	pj, _, err := mgr.Submit(plain)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr, pj.ID, StatusDone)
	resp2, err := http.Get(srv.URL + "/sweeps/" + pj.ID + "/trajectories")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("non-trajectory job served %d, want 404", resp2.StatusCode)
	}
}

// TestTrajectorySidecarResumeByteIdentical: cancel a trajectory job
// mid-run and resume it on a fresh manager — the finished sidecar must
// be byte-identical to an uninterrupted run's (same canonical order,
// same lines), mirroring the checkpoint guarantee.
func TestTrajectorySidecarResumeByteIdentical(t *testing.T) {
	sp := Spec{N: 20, Alphas: []float64{0.3, 0.5, 1, 2}, Ks: []int{2, 3, 1000}, Seeds: 3, Trajectories: true}
	sp.Normalize()

	refStore, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	refMgr := NewManager(refStore, nil, 4)
	refJob, _, err := refMgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, refMgr, refJob.ID, StatusDone)
	refMgr.Close()
	refSidecar, err := os.ReadFile(refStore.TrajectoryPath(refJob.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(refSidecar) == 0 {
		t.Fatal("reference sidecar is empty")
	}

	dir := t.TempDir()
	store1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := NewManager(store1, nil, 2)
	taken := make(chan struct{})
	mgr1.SetExecutorProvider(firstCells{k: 3, taken: taken})
	job1, _, err := mgr1.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	<-taken
	mgr1.Close()

	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := NewManager(store2, nil, 4)
	if err := mgr2.Resume(); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr2, job1.ID, StatusDone)
	mgr2.Close()

	resumed, err := os.ReadFile(store2.TrajectoryPath(job1.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, refSidecar) {
		t.Fatalf("resumed sidecar differs from uninterrupted run (%d vs %d bytes)", len(resumed), len(refSidecar))
	}
}

// TestTrajectoryJobsBypassCache: two trajectory jobs with overlapping
// grids must BOTH have complete sidecars — the overlap is recomputed,
// never served from the cache (whose codec drops PerRound and would
// leave silent holes).
func TestTrajectoryJobsBypassCache(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, NewCache(4096), 4)
	defer mgr.Close()

	a := Spec{N: 12, Alphas: []float64{1}, Ks: []int{2}, Seeds: 3, Trajectories: true}
	a.Normalize()
	jobA, _, err := mgr.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr, jobA.ID, StatusDone)

	b := Spec{N: 12, Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 3, Trajectories: true}
	b.Normalize()
	jobB, _, err := mgr.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	doneB := waitStatus(t, mgr, jobB.ID, StatusDone)
	if doneB.CacheHits != 0 {
		t.Fatalf("trajectory job took %d cache hits; the sidecar would have holes", doneB.CacheHits)
	}
	f, err := os.Open(store.TrajectoryPath(jobB.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	trs := readTrajectories(t, f)
	if len(trs) != len(b.Cells()) {
		t.Fatalf("job B sidecar has %d records, want %d (complete grid)", len(trs), len(b.Cells()))
	}
}

// TestTrajectoryReconcileSurplusRecord simulates the crash window the
// sidecar-first write order leaves behind: the trajectory line landed
// but the checkpoint line did not. Resume must drop the surplus record,
// recompute the cell, and finish with checkpoint AND sidecar
// byte-identical to the uninterrupted run.
func TestTrajectoryReconcileSurplusRecord(t *testing.T) {
	sp := trajSpec()
	dir := t.TempDir()
	store1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := NewManager(store1, nil, 2)
	job, _, err := mgr1.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr1, job.ID, StatusDone)
	mgr1.Close()

	refResults, err := os.ReadFile(store1.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	refSidecar, err := os.ReadFile(store1.TrajectoryPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}

	// Chop the final checkpoint line, keeping the full sidecar: exactly
	// the on-disk state of a crash between the two appends.
	lines := bytes.SplitAfter(refResults, []byte("\n"))
	if len(lines) < 2 {
		t.Fatal("checkpoint too small to truncate")
	}
	var truncated []byte
	for _, l := range lines[:len(lines)-2] {
		truncated = append(truncated, l...)
	}
	if err := os.WriteFile(store1.ResultsPath(job.ID), truncated, 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := NewManager(store2, nil, 2)
	defer mgr2.Close()
	if err := mgr2.Resume(); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr2, job.ID, StatusDone)

	gotResults, err := os.ReadFile(store2.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	gotSidecar, err := os.ReadFile(store2.TrajectoryPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotResults, refResults) {
		t.Fatalf("resumed checkpoint differs (%d vs %d bytes)", len(gotResults), len(refResults))
	}
	if !bytes.Equal(gotSidecar, refSidecar) {
		t.Fatalf("reconciled sidecar differs (%d vs %d bytes)", len(gotSidecar), len(refSidecar))
	}
}

// TestTrajectoryReconcileLostSidecarTail covers the power-loss ordering
// gap: the checkpoint's tail became durable but the sidecar's did not.
// Resume must truncate the checkpoint back to the common prefix and
// recompute, finishing with both files byte-identical to an
// uninterrupted run — never a checkpointed cell with a permanently
// missing trajectory.
func TestTrajectoryReconcileLostSidecarTail(t *testing.T) {
	sp := trajSpec()
	dir := t.TempDir()
	store1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := NewManager(store1, nil, 2)
	job, _, err := mgr1.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr1, job.ID, StatusDone)
	mgr1.Close()

	refResults, err := os.ReadFile(store1.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	refSidecar, err := os.ReadFile(store1.TrajectoryPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}

	// Chop the final sidecar record, keeping the full checkpoint: the
	// state a power loss can leave despite the sidecar-first write order.
	lines := bytes.SplitAfter(refSidecar, []byte("\n"))
	var truncated []byte
	for _, l := range lines[:len(lines)-2] {
		truncated = append(truncated, l...)
	}
	if err := os.WriteFile(store1.TrajectoryPath(job.ID), truncated, 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := NewManager(store2, nil, 2)
	defer mgr2.Close()
	if err := mgr2.Resume(); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr2, job.ID, StatusDone)

	gotResults, err := os.ReadFile(store2.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	gotSidecar, err := os.ReadFile(store2.TrajectoryPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotResults, refResults) {
		t.Fatalf("checkpoint differs after sidecar-tail loss (%d vs %d bytes)", len(gotResults), len(refResults))
	}
	if !bytes.Equal(gotSidecar, refSidecar) {
		t.Fatalf("sidecar differs after tail loss (%d vs %d bytes)", len(gotSidecar), len(refSidecar))
	}
}

// TestTrajectoryLeaseStreamsRecords: POST /peer/leases for a trajectory
// spec streams one lease record per cell — the canonical result line
// wrapped with its per-round stats — in canonical order, so trajectory
// sweeps can shard without the sidecar losing data.
func TestTrajectoryLeaseStreamsRecords(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, NewCache(1024), 2)
	defer mgr.Close()
	srv := httptest.NewServer(NewHandlerConfig(mgr, Config{}))
	defer srv.Close()

	sp := trajSpec()
	start, end := 1, 5
	resp := postLease(t, srv.URL, LeaseRequest{Spec: sp, Start: start, End: end})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}

	cells := sp.Cells()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	i := start
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue // heartbeat
		}
		rec, err := ncgio.UnmarshalLeaseRecord(line)
		if err != nil {
			t.Fatalf("bad lease record %q: %v", line, err)
		}
		if rec.Cell != cells[i] {
			t.Fatalf("record %d is cell %+v, want %+v", i-start, rec.Cell, cells[i])
		}
		if len(rec.Result.PerRound) == 0 {
			t.Fatalf("cell %+v arrived without per-round stats", rec.Cell)
		}
		if n := len(rec.Result.PerRound); n != rec.Result.Rounds {
			t.Fatalf("cell %+v has %d per-round entries, summary says %d rounds", rec.Cell, n, rec.Result.Rounds)
		}
		i++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != end {
		t.Fatalf("stream delivered %d records, want %d", i-start, end-start)
	}
}

// TestTrajectoryKernelSeparation: the trajectories flag is part of the
// cache kernel, so a trajectory job never reuses a plain job's cached
// (trajectory-less) cells.
func TestTrajectoryKernelSeparation(t *testing.T) {
	plain := Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2}
	plain.Normalize()
	traj := plain
	traj.Trajectories = true
	if plain.KernelHash() == traj.KernelHash() {
		t.Fatal("trajectory flag does not separate kernels")
	}
	if plain.ID() == traj.ID() {
		t.Fatal("trajectory flag does not separate job IDs")
	}
}
