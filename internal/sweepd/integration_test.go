package sweepd

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dynamics"
)

// bigSpec is sized so a sweep takes long enough to interrupt reliably but
// still finishes fast when run to completion.
func bigSpec() Spec {
	sp := Spec{
		N:      24,
		Alphas: []float64{0.3, 0.5, 1, 2, 5},
		Ks:     []int{2, 3, 1000},
		Seeds:  4,
	}
	sp.Normalize()
	return sp
}

func waitStatus(t *testing.T, m *Manager, id string, want JobStatus) Job {
	t.Helper()
	return waitJob(t, m, id, func(j Job) bool { return j.Status == want })
}

// stopped reports whether a canceled job's runner has ended it: canceled,
// or done when the cancel came too late.
func stopped(j Job) bool { return j.Status == StatusCanceled || j.Status == StatusDone }

// waitJob blocks on Manager.Watch until the job satisfies ok; a job that
// fails or vanishes first ends the test.
func waitJob(t *testing.T, m *Manager, id string, ok func(Job) bool) Job {
	t.Helper()
	timeout := time.After(60 * time.Second)
	for {
		job, changed, found := m.Watch(id)
		switch {
		case !found:
			t.Fatalf("job %s vanished", id)
		case ok(job):
			return job
		case job.Status == StatusFailed:
			t.Fatalf("job failed: %s", job.Error)
		}
		select {
		case <-changed:
		case <-timeout:
			job, _ = m.Get(id)
			t.Fatalf("timed out; job = %+v", job)
		}
	}
}

// TestKilledJobResumesByteIdentical is the subsystem's core guarantee: a
// job killed mid-run and restarted by a fresh daemon over the same store
// finishes with a results file byte-identical to an uninterrupted run's.
func TestKilledJobResumesByteIdentical(t *testing.T) {
	sp := bigSpec()

	// Reference: uninterrupted run in its own store.
	refStore, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	refMgr := NewManager(refStore, NewCache(1024), 4)
	refJob, _, err := refMgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, refMgr, refJob.ID, StatusDone)
	refMgr.Close()
	refBytes, err := os.ReadFile(refStore.ResultsPath(refJob.ID))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: kill the daemon once a few cells are checkpointed.
	dir := t.TempDir()
	store1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := NewManager(store1, NewCache(1024), 2)
	job1, _, err := mgr1.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if job, _ := mgr1.Get(job1.ID); job.Completed >= 3 || job.Status == StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never made progress")
		}
		time.Sleep(time.Millisecond)
	}
	mgr1.Close() // cancels the job and flushes the checkpoint

	partial, err := os.ReadFile(store1.ResultsPath(job1.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) == 0 {
		t.Fatal("no checkpoint written before the kill")
	}
	if len(partial) >= len(refBytes) {
		t.Log("job finished before the kill; resume path not exercised this run")
	}
	if !bytes.HasPrefix(refBytes, partial) {
		t.Fatal("checkpoint is not a clean prefix of the canonical results")
	}

	// Restart: a fresh manager over the same store resumes automatically.
	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := NewManager(store2, NewCache(1024), 4)
	if err := mgr2.Resume(); err != nil {
		t.Fatal(err)
	}
	job2, ok := mgr2.Get(job1.ID)
	if !ok {
		t.Fatal("restarted manager does not know the job")
	}
	done := waitStatus(t, mgr2, job2.ID, StatusDone)
	mgr2.Close()
	if done.Completed != done.Total {
		t.Fatalf("completed %d of %d cells", done.Completed, done.Total)
	}

	resumed, err := os.ReadFile(store2.ResultsPath(job1.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, refBytes) {
		t.Fatalf("resumed results differ from uninterrupted run: %d vs %d bytes",
			len(resumed), len(refBytes))
	}
}

// TestWarmRestartServesFromDiskCache upgrades restart determinism to
// restart warmth: a daemon killed mid-sweep leaves a spill segment behind,
// and a restarted daemon serves those cells from the disk cache — zero
// recomputation — even in the worst case where the checkpoint itself is
// gone, while the final results stay byte-identical to an uninterrupted
// run.
func TestWarmRestartServesFromDiskCache(t *testing.T) {
	sp := bigSpec()

	// Reference: uninterrupted run in its own store, no cache involved.
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
	refBytes, err := os.ReadFile(refStore.ResultsPath(refJob.ID))
	if err != nil {
		t.Fatal(err)
	}

	// First daemon: disk-backed cache, killed once a few cells landed.
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	store1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewDiskCache(4096, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := NewManager(store1, c1, 2)
	job1, _, err := mgr1.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if job, _ := mgr1.Get(job1.ID); job.Completed >= 5 || job.Status == StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never made progress")
		}
		time.Sleep(time.Millisecond)
	}
	mgr1.Close()

	segment, err := os.ReadFile(filepath.Join(cacheDir, sp.KernelHash(), segmentName))
	if err != nil {
		t.Fatal(err)
	}
	spilled := bytes.Count(segment, []byte("\n"))
	if spilled == 0 {
		t.Fatal("no cells spilled before the kill")
	}

	// Worst-case restart: the checkpoint is lost entirely (equivalently, a
	// brand-new job with the same cells arrives) — only the spill tier
	// remains to keep the hit rate.
	if err := os.Remove(store1.ResultsPath(job1.ID)); err != nil {
		t.Fatal(err)
	}
	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewDiskCache(4096, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := NewManager(store2, c2, 4)
	if err := mgr2.Resume(); err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, mgr2, job1.ID, StatusDone)
	mgr2.Close()

	// Every spilled cell must be cache-served — i.e. recomputed cells are
	// exactly Total - spilled, none of the spilled set.
	if done.CacheHits != spilled {
		t.Fatalf("cache hits = %d, want %d (every spilled cell, no recomputation)",
			done.CacheHits, spilled)
	}
	cs := c2.Stats()
	if cs.Hits == 0 || cs.DiskHits != uint64(spilled) {
		t.Fatalf("warm cache stats = %+v, want %d disk hits", cs, spilled)
	}

	resumed, err := os.ReadFile(store2.ResultsPath(job1.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, refBytes) {
		t.Fatalf("warm-restart results differ from uninterrupted run: %d vs %d bytes",
			len(resumed), len(refBytes))
	}
}

// TestCacheDedupesAcrossJobs submits two jobs with overlapping grids and
// checks the second reuses the shared cells from the cache — and that the
// reused cells land in its checkpoint byte-identically.
func TestCacheDedupesAcrossJobs(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, NewCache(4096), 4)
	defer mgr.Close()

	a := Spec{N: 14, Alphas: []float64{0.5, 1}, Ks: []int{2, 1000}, Seeds: 3}
	a.Normalize()
	jobA, _, err := mgr.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr, jobA.ID, StatusDone)

	b := Spec{N: 14, Alphas: []float64{1, 2}, Ks: []int{2, 1000}, Seeds: 3}
	b.Normalize()
	jobB, _, err := mgr.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	doneB := waitStatus(t, mgr, jobB.ID, StatusDone)

	overlap := 1 * 2 * 3 // α=1 × two ks × three seeds
	if doneB.CacheHits != overlap {
		t.Fatalf("cache hits = %d, want %d", doneB.CacheHits, overlap)
	}

	// The shared α=1 lines must be byte-identical across both files.
	resA, err := store.LoadResults(jobA.ID)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := store.LoadResults(jobB.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(resB) != len(b.Cells()) {
		t.Fatalf("job B has %d results, want %d", len(resB), len(b.Cells()))
	}
	fpA := map[dynamics.Cell]uint64{}
	for _, r := range resA {
		if r.Cell.Alpha == 1 {
			fpA[r.Cell] = r.Result.Final.Fingerprint()
		}
	}
	shared := 0
	for _, r := range resB {
		if r.Cell.Alpha != 1 {
			continue
		}
		want, ok := fpA[r.Cell]
		if !ok {
			t.Fatalf("cell %+v missing from job A", r.Cell)
		}
		if r.Result.Final.Fingerprint() != want {
			t.Fatalf("cell %+v differs across jobs", r.Cell)
		}
		shared++
	}
	if shared != overlap {
		t.Fatalf("found %d shared cells, want %d", shared, overlap)
	}
}

func TestSubmitIdempotent(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, nil, 2)
	defer mgr.Close()

	sp := Spec{N: 10, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2}
	job1, created1, err := mgr.Submit(sp)
	if err != nil || !created1 {
		t.Fatalf("first submit: %v, created=%v", err, created1)
	}
	waitStatus(t, mgr, job1.ID, StatusDone)
	job2, created2, err := mgr.Submit(sp)
	if err != nil || created2 {
		t.Fatalf("resubmit: %v, created=%v", err, created2)
	}
	if job2.ID != job1.ID || job2.Status != StatusDone {
		t.Fatalf("resubmit returned %+v", job2)
	}
}

func TestCancelJob(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, nil, 1)
	defer mgr.Close()

	job, _, err := mgr.Submit(bigSpec())
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := mgr.Cancel(job.ID)
	if !ok {
		t.Fatal("cancel reported unknown job")
	}
	if snap.Status != StatusRunning {
		t.Fatalf("cancel snapshot status = %s, want running", snap.Status)
	}
	waitJob(t, mgr, job.ID, stopped)
	if _, ok := mgr.Cancel("没有这个"); ok {
		t.Fatal("cancel invented a job")
	}

	// Resubmitting a canceled job restarts it from its checkpoint.
	restarted, created, err := mgr.Submit(bigSpec())
	if err != nil {
		t.Fatal(err)
	}
	if created || restarted.ID != job.ID {
		t.Fatalf("restart: created=%v id=%s (want existing %s)", created, restarted.ID, job.ID)
	}
	done := waitStatus(t, mgr, job.ID, StatusDone)
	if done.Completed != done.Total {
		t.Fatalf("restarted job completed %d of %d", done.Completed, done.Total)
	}
}
