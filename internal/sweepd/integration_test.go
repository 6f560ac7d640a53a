package sweepd

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
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
	taken := make(chan struct{})
	mgr1.SetExecutorProvider(firstCells{k: 3, taken: taken})
	job1, _, err := mgr1.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	<-taken
	mgr1.Close() // cancels the job and flushes the checkpoint

	partial, err := os.ReadFile(store1.ResultsPath(job1.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) == 0 {
		t.Fatal("no checkpoint written before the kill")
	}
	if len(partial) >= len(refBytes) {
		t.Fatal("the whole grid was checkpointed before the kill; the resume path is not exercised")
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
// restart warmth: a daemon killed mid-sweep leaves its checkpoint's clean
// prefix behind, and after a restart a new job of the same kernel is
// served those cells from it — read from disk, as nothing put them in
// memory — while every checkpoint stays byte-identical to an
// uninterrupted run's.
func TestWarmRestartServesFromDiskCache(t *testing.T) {
	sp := bigSpec()
	sub := Spec{N: sp.N, Alphas: sp.Alphas[:2], Ks: sp.Ks, Seeds: sp.Seeds}
	sub.Normalize()
	if sub.KernelHash() != sp.KernelHash() {
		t.Fatal("test setup: the sub-grid must share the kernel")
	}

	// First daemon: killed once a few cells landed.
	dir := t.TempDir()
	store1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewDiskCache(4096, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := NewManager(store1, c1, 2)
	taken := make(chan struct{})
	mgr1.SetExecutorProvider(firstCells{k: 5, taken: taken})
	job1, _, err := mgr1.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	<-taken
	mgr1.Close()
	prefix, err := ncgio.ReadCheckpoint(store1.ResultsPath(job1.ID))
	if err != nil || len(prefix) == 0 || len(prefix) >= sp.NumCells() {
		t.Fatalf("the kill left %d of %d cells (%v); want a proper prefix", len(prefix), sp.NumCells(), err)
	}
	overlap := 0
	for _, r := range prefix {
		if slices.Contains(sub.Cells(), r.Cell) {
			overlap++
		}
	}

	// Restart: the killed job resumes and finishes, then the sub-grid job
	// arrives. Its cells from the surviving prefix are disk hits; the
	// ones the resumed job computed are memory hits.
	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewDiskCache(4096, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := NewManager(store2, c2, 4)
	defer mgr2.Close()
	if err := mgr2.Resume(); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr2, job1.ID, StatusDone)
	job2 := runDoneJob(t, mgr2, sub)
	if job2.CacheHits != sub.NumCells() {
		t.Fatalf("sub-grid job: %d cache hits, want all %d cells", job2.CacheHits, sub.NumCells())
	}
	if cs := c2.Stats(); cs.DiskHits != uint64(overlap) {
		t.Fatalf("warm cache stats = %+v, want %d disk hits (the prefix's overlap)", cs, overlap)
	}
	for _, j := range []struct {
		id string
		sp Spec
	}{{job1.ID, sp}, {job2.ID, sub}} {
		got, err := os.ReadFile(store2.ResultsPath(j.id))
		if err != nil || !bytes.Equal(got, canonicalBytes(t, j.sp)) {
			t.Fatalf("job %s differs from an uninterrupted run (%v)", j.id, err)
		}
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

// TestRestartWakesWatchers: a Watch taken on a canceled job fires when a
// resubmit of its spec replaces the job's state with a running one.
func TestRestartWakesWatchers(t *testing.T) {
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
	mgr.Cancel(job.ID)
	if got := waitJob(t, mgr, job.ID, stopped); got.Status != StatusCanceled {
		t.Fatalf("job ended %s before the cancel landed", got.Status)
	}
	_, changed, _ := mgr.Watch(job.ID)
	if _, _, err := mgr.Submit(bigSpec()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-changed:
	case <-time.After(5 * time.Second):
		t.Fatal("the restart left the canceled job's watcher waiting")
	}
}

// firstCells is an executor provider for stopping a sweep part-way: it
// computes the job's cells one at a time in canonical order on the local
// pool, closes taken once the sweep has taken the (k+1)-th — the sweep
// emits in order, so by then it has checkpointed the first k — and
// computes nothing more until the sweep is canceled.
type firstCells struct {
	k     int
	taken chan struct{}
}

func (f firstCells) ExecutorFor(Spec, func(int)) dynamics.Executor { return f }

func (f firstCells) Execute(ctx context.Context, req dynamics.ExecRequest) <-chan dynamics.IndexedResult {
	out := make(chan dynamics.IndexedResult)
	go func() {
		defer close(out)
		for _, idx := range req.Todo[:f.k+1] {
			one := req
			one.Todo = []int{idx}
			for ir := range (dynamics.LocalExecutor{}).Execute(ctx, one) {
				select {
				case out <- ir:
				case <-ctx.Done():
					return
				}
			}
		}
		close(f.taken)
		<-ctx.Done()
	}()
	return out
}
