package sweepd

import (
	"bytes"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"
)

// TestRunningReplicaStaysInvisible: a running job's tail lands in the
// holder's replica set, where adoption would seed from it, but reads do
// not see it — no snapshot, no results, not held — until the done push
// completes the grid from where the tail ended. Then the holder serves the
// leader's bytes under the leader's ETag.
func TestRunningReplicaStaysInvisible(t *testing.T) {
	leaderMgr, _, _, leaderSrv, _ := newLifecycleRig(t, Config{})
	holder, fh, holderSrv, _ := newReplicaRig(t, Config{})
	sp := Spec{N: 10, Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 2, Trajectories: true}
	job := runDoneJob(t, leaderMgr, sp)
	var full [2][]byte
	for i, path := range []string{leaderMgr.ResultsPath(job.ID), leaderMgr.TrajectoryPath(job.ID)} {
		var err error
		if full[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}

	// The pushing leader's files hold the first two cells of each file,
	// the second cell's result line torn.
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.CreateJob(job.Spec); err != nil {
		t.Fatal(err)
	}
	cut := func(data []byte, lines int) []byte {
		return data[:len(bytes.Join(bytes.SplitAfter(data, []byte("\n"))[:lines], nil))]
	}
	write := func(checkpoint, sidecar []byte) {
		t.Helper()
		if err := os.WriteFile(st.ResultsPath(job.ID), checkpoint, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.TrajectoryPath(job.ID), sidecar, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(append(cut(full[0], 1), full[0][len(cut(full[0], 1)):][:7]...), cut(full[1], 2))
	rp := NewReplicator(ReplicatorOptions{
		Store:   st,
		Fanout:  1,
		Targets: func() []MemberLoad { return []MemberLoad{{URL: holderSrv.URL}} },
	})
	running := job
	running.Status, running.Finished = StatusRunning, time.Time{}
	if err := rp.replicate(running); err != nil {
		t.Fatal(err)
	}
	if got := fh.replicasReceived.Load(); got != 0 || fh.replicaBytesReceived.Load() == 0 {
		t.Fatalf("holder counts %d replicas and %d bytes after a running tail; want its bytes, no replica",
			got, fh.replicaBytesReceived.Load())
	}
	checkpoint, sidecar := replicaFiles(holder, job.ID)
	if !bytes.Equal(checkpoint, cut(full[0], 1)) || !bytes.Equal(sidecar, cut(full[1], 2)) {
		t.Fatalf("holder's tail = %d and %d bytes, want the whole lines pushed (%d and %d)",
			len(checkpoint), len(sidecar), len(cut(full[0], 1)), len(cut(full[1], 2)))
	}
	for _, read := range []string{"", "/results", "/trajectories"} {
		if resp, body := getRaw(t, holderSrv.URL+"/sweeps/"+job.ID+read, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s of a running replica = %d %s, want 404", read, resp.StatusCode, body)
		}
	}
	if ids := holder.Replicas().List(); len(ids) != 0 {
		t.Fatalf("a running replica is listed as held: %v", ids)
	}

	write(full[0], full[1])
	if err := rp.replicate(job); err != nil {
		t.Fatal(err)
	}
	if st := rp.Stats(); st.Pushed != 1 || st.PushFailures != 0 {
		t.Fatalf("push stats = %+v, want one done replica and no failure", st)
	}
	for _, read := range []string{"/results", "/trajectories"} {
		want, body := getRaw(t, leaderSrv.URL+"/sweeps/"+job.ID+read, nil)
		resp, got := getRaw(t, holderSrv.URL+"/sweeps/"+job.ID+read, nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, body) {
			t.Fatalf("holder %s = %d with %d bytes, leader served %d", read, resp.StatusCode, len(got), len(body))
		}
		if resp.Header.Get("ETag") == "" || resp.Header.Get("ETag") != want.Header.Get("ETag") {
			t.Fatalf("holder %s ETag = %q, leader's %q", read, resp.Header.Get("ETag"), want.Header.Get("ETag"))
		}
	}
	if ids := holder.Replicas().List(); len(ids) != 1 || ids[0] != job.ID {
		t.Fatalf("held replicas after the done push = %v", ids)
	}
}

// TestReplicaServesTheHoldersCache: a done replica is in its holder's
// cache index, so the holder's own job of the replica's kernel takes the
// cells the two grids share from it — and writes nothing to it.
func TestReplicaServesTheHoldersCache(t *testing.T) {
	leaderMgr, _, _, _, _ := newLifecycleRig(t, Config{})
	holder, _, holderSrv, _ := newReplicaRig(t, Config{})
	job := runDoneJob(t, leaderMgr, Spec{N: 10, Alphas: []float64{1, 2}, Ks: []int{2, 3}, Seeds: 2})
	rp := NewReplicator(ReplicatorOptions{
		Store:   leaderMgr.store,
		Fanout:  1,
		Targets: func() []MemberLoad { return []MemberLoad{{URL: holderSrv.URL}} },
	})
	if err := rp.replicate(job); err != nil {
		t.Fatal(err)
	}
	replica, err := os.ReadFile(holder.Replicas().ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}

	overlap := Spec{N: 10, Alphas: []float64{2, 5}, Ks: []int{3}, Seeds: 2} // α = 2, k = 3: two shared cells
	got := runDoneJob(t, holder, overlap)
	if st := holder.CacheStats(); got.CacheHits != 2 || st.DiskHits != 2 {
		t.Fatalf("job cache hits %d, disk hits %d; want the 2 cells the replica holds", got.CacheHits, st.DiskHits)
	}
	refStore, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref := NewManager(refStore, nil, 2)
	t.Cleanup(ref.Close)
	runDoneJob(t, ref, overlap)
	for _, f := range []struct{ got, want string }{
		{holder.ResultsPath(got.ID), ref.ResultsPath(got.ID)},
		{holder.Replicas().ResultsPath(job.ID), leaderMgr.ResultsPath(job.ID)},
	} {
		a, err := os.ReadFile(f.got)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(f.want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs from %s (%d vs %d bytes)", f.got, f.want, len(a), len(b))
		}
	}
	if after, _ := os.ReadFile(holder.Replicas().ResultsPath(job.ID)); !bytes.Equal(after, replica) {
		t.Fatal("the holder's job changed the replica it read")
	}
}

// replicaFiles reads m's replica of job id: its checkpoint and sidecar,
// nil when absent.
func replicaFiles(m *Manager, id string) (checkpoint, sidecar []byte) {
	checkpoint, _ = os.ReadFile(m.Replicas().ResultsPath(id))
	sidecar, _ = os.ReadFile(m.Replicas().TrajectoryPath(id))
	return checkpoint, sidecar
}

// TestAdoptCountsItsSeed: the snapshot Adopt returns counts the cells its
// replica stored, so the adopter's first lease counts its seed.
func TestAdoptCountsItsSeed(t *testing.T) {
	sp := Spec{N: 10, Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 2}
	_, recs, _ := honestReplica(t, sp)
	sp.Normalize()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(st, nil, 2)
	t.Cleanup(mgr.Close)
	plantReplica(t, mgr, sp, bytes.Join(recs, nil), nil)
	job, _, err := mgr.Adopt(sp)
	if err != nil {
		t.Fatal(err)
	}
	if job.Completed != sp.NumCells() {
		t.Fatalf("adopted snapshot counts %d of %d seeded cells", job.Completed, sp.NumCells())
	}
}

// TestTailPushesNeedNoResend: a pusher that does not know what a member
// stores — a restarted leader, an adopter — pushes from the start, and the
// holder replaces its tail with it; the pusher's next tail extends it. A
// member that lost its tail refuses the next push (one failure, nothing
// resent), and the one after that starts from the start again.
func TestTailPushesNeedNoResend(t *testing.T) {
	leaderMgr, _, _, _, _ := newLifecycleRig(t, Config{})
	holder, _, holderSrv, _ := newReplicaRig(t, Config{})
	job := runDoneJob(t, leaderMgr, Spec{N: 10, Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 2})
	full, err := os.ReadFile(leaderMgr.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(full, []byte("\n"))
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.CreateJob(job.Spec); err != nil {
		t.Fatal(err)
	}
	running := job
	running.Status, running.Finished = StatusRunning, time.Time{}
	pusher := func() *Replicator {
		return NewReplicator(ReplicatorOptions{
			Store:   st,
			Fanout:  1,
			Targets: func() []MemberLoad { return []MemberLoad{{URL: holderSrv.URL}} },
		})
	}
	heartbeat := func(rp *Replicator, records int, refused bool) {
		t.Helper()
		want := bytes.Join(lines[:records], nil)
		if err := os.WriteFile(st.ResultsPath(job.ID), want, 0o644); err != nil {
			t.Fatal(err)
		}
		failures := rp.Stats().PushFailures
		err := rp.replicate(running)
		if got := rp.Stats().PushFailures - failures; (err != nil) != refused || (got == 1) != refused {
			t.Fatalf("%d records: push error %v, %d failures; want refused=%v", records, err, got, refused)
		}
		if refused {
			return
		}
		got, _ := replicaFiles(holder, job.ID)
		man, err := holder.Replicas().Manifest(job.ID)
		if err != nil || !bytes.Equal(got, want) || man.CheckpointFrom != int64(len(want)) || man.Records[0] != records {
			t.Fatalf("holder stores %d bytes, its manifest %d bytes and %v records (%v); want the %d records pushed",
				len(got), man.CheckpointFrom, man.Records, err, records)
		}
	}
	first := pusher()
	heartbeat(first, 1, false)
	heartbeat(first, 2, false)
	restarted := pusher()
	heartbeat(restarted, 3, false)
	if err := holder.Replicas().Delete(job.ID); err != nil {
		t.Fatal(err)
	}
	heartbeat(restarted, 4, true)
	heartbeat(restarted, 4, false)
}

// TestConcurrentPushesOfOneJob: pushes of one job that arrive together —
// running tails from 0 and the done push from 0, several of each — are
// judged and stored one at a time: each is answered 200, and the holder
// ends with the leader's files, done, its manifest counting them.
func TestConcurrentPushesOfOneJob(t *testing.T) {
	leaderMgr, _, _, _, _ := newLifecycleRig(t, Config{})
	holder, _, holderSrv, _ := newReplicaRig(t, Config{})
	job := runDoneJob(t, leaderMgr, Spec{N: 10, Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 2, Trajectories: true})
	rp := NewReplicator(ReplicatorOptions{Store: leaderMgr.store})
	data, err := rp.readTails(job, [2]int64{})
	if err != nil {
		t.Fatal(err)
	}
	done, err := rp.buildBody(job, [2]int64{}, data)
	if err != nil {
		t.Fatal(err)
	}
	running := job
	running.Status = StatusRunning
	half := func(b []byte) []byte { return bytes.Join(bytes.SplitAfter(b, []byte("\n"))[:2], nil) }
	tail, err := rp.buildBody(running, [2]int64{}, [2][]byte{half(data[0]), half(data[1])})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := [][]byte{tail, done}[i%2]
			resp, err := http.Post(holderSrv.URL+"/peer/replicas/"+job.ID, "application/x-ndjson", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("push %d answered %d", i, resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	checkpoint, sidecar := replicaFiles(holder, job.ID)
	man, err := holder.Replicas().Manifest(job.ID)
	if err != nil || man.Status != string(StatusDone) || !bytes.Equal(checkpoint, data[0]) || !bytes.Equal(sidecar, data[1]) ||
		man.CheckpointFrom != int64(len(data[0])) || man.TrajectoryFrom != int64(len(data[1])) || man.Records != [2]int{4, 4} {
		t.Fatalf("holder stores %d+%d bytes under %+v (%v); want the leader's %d+%d, done, 4 records each",
			len(checkpoint), len(sidecar), man, err, len(data[0]), len(data[1]))
	}
}
