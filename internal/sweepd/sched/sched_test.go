package sched

// Unit tests for the scheduler's two behaviors — leadership
// heartbeating and adoption — against scripted fakes of the registry
// and the manager. Cluster e2e lives in e2e_test.go and
// replica_e2e_test.go.

import (
	"bytes"
	"log"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sweepd"
)

func testSpec() sweepd.Spec {
	sp := sweepd.Spec{N: 8, Alphas: []float64{1}, Ks: []int{2}, Seeds: 1}
	sp.Normalize()
	return sp
}

// fakeCluster scripts the registry surface: member table, cached
// loads, and a lease table with the real generation guard.
type fakeCluster struct {
	mu      sync.Mutex
	self    string
	members []sweepd.MemberInfo
	loads   []sweepd.MemberLoad
	leases  map[string]sweepd.JobLease
}

func newFakeCluster(self string) *fakeCluster {
	return &fakeCluster{self: self, leases: make(map[string]sweepd.JobLease)}
}

func (c *fakeCluster) Self() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.self
}

func (c *fakeCluster) Members() []sweepd.MemberInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]sweepd.MemberInfo(nil), c.members...)
}

func (c *fakeCluster) AliveLoads() []sweepd.MemberLoad {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]sweepd.MemberLoad(nil), c.loads...)
}

func (c *fakeCluster) UpdateLease(l sweepd.JobLease) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.leases[l.JobID]
	accept := !ok ||
		l.Generation > cur.Generation ||
		(l.Generation == cur.Generation && (l.Owner == cur.Owner || l.Owner < cur.Owner))
	if accept {
		l.Updated = time.Now() // the real registry re-stamps on receipt
		c.leases[l.JobID] = l
	}
	return accept
}

func (c *fakeCluster) DropLease(jobID string, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.leases[jobID]; ok && cur.Generation <= gen {
		delete(c.leases, jobID)
	}
}

func (c *fakeCluster) Leases() []sweepd.JobLease {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]sweepd.JobLease, 0, len(c.leases))
	for _, l := range c.leases {
		out = append(out, l)
	}
	return out
}

func (c *fakeCluster) Tombstones() []sweepd.Tombstone { return nil }

func (c *fakeCluster) lease(jobID string) (sweepd.JobLease, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[jobID]
	return l, ok
}

// adoptCall records one Manager.Adopt invocation.
type adoptCall struct {
	spec                sweepd.Spec
	checkpoint, sidecar []byte
}

// fakeManager scripts the manager surface: a fixed load, a job list,
// and recorded Adopt calls.
type fakeManager struct {
	mu      sync.Mutex
	load    sweepd.LoadInfo
	jobs    []sweepd.Job
	adopted []adoptCall
	// replicaCheckpoints scripts ReplicaFiles' checkpoint by job ID (nil
	// map = no replicas held); replicaAsked records the IDs it was asked
	// for.
	replicaCheckpoints map[string][]byte
	replicaAsked       []string
	// heartbeats records the job IDs each Heartbeat was handed.
	heartbeats [][]string
}

func (m *fakeManager) Submit(sp sweepd.Spec) (sweepd.Job, bool, error) {
	return sweepd.Job{ID: sp.ID(), Spec: sp, Status: sweepd.StatusRunning}, true, nil
}

func (m *fakeManager) Adopt(sp sweepd.Spec, checkpoint, sidecar []byte) (sweepd.Job, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.adopted = append(m.adopted, adoptCall{sp, checkpoint, sidecar})
	// The real manager counts the records its resume keeps of the seed.
	job := sweepd.Job{ID: sp.ID(), Spec: sp, Status: sweepd.StatusRunning, Total: sp.NumCells(), Completed: bytes.Count(checkpoint, []byte("\n"))}
	m.jobs = append(m.jobs, job)
	return job, true, nil
}

func (m *fakeManager) List() []sweepd.Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]sweepd.Job(nil), m.jobs...)
}

func (m *fakeManager) Load() sweepd.LoadInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.load
}

func (m *fakeManager) ReplicaFiles(id string) (checkpoint, sidecar []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.replicaAsked = append(m.replicaAsked, id)
	return m.replicaCheckpoints[id], nil
}

func (m *fakeManager) Heartbeat(ids []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.heartbeats = append(m.heartbeats, ids)
}

func (m *fakeManager) setJobs(jobs ...sweepd.Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs = jobs
}

func newTestScheduler(t *testing.T, c *fakeCluster, m *fakeManager) *Scheduler {
	t.Helper()
	s, err := New(Options{
		Cluster:    c,
		Manager:    m,
		AdoptAfter: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHeartbeatLeasesRunningJobsAndDropsFinished: one tick publishes a
// generation-1 lease per running job and hands the job to the manager's
// Heartbeat, whose hooks push its checkpoint tail; the tick after the job
// finishes withdraws the lease and hands over nothing.
func TestHeartbeatLeasesRunningJobsAndDropsFinished(t *testing.T) {
	sp := testSpec()
	c := newFakeCluster("http://self:1")
	m := &fakeManager{}
	m.setJobs(sweepd.Job{ID: sp.ID(), Spec: sp, Status: sweepd.StatusRunning, Completed: 3, Total: 8})
	s := newTestScheduler(t, c, m)

	s.tick()
	l, ok := c.lease(sp.ID())
	if !ok || l.Owner != "http://self:1" || l.Generation != 1 || l.Completed != 3 {
		t.Fatalf("lease after tick = %+v (ok=%v)", l, ok)
	}

	m.setJobs(sweepd.Job{ID: sp.ID(), Spec: sp, Status: sweepd.StatusDone})
	s.tick()
	if _, ok := c.lease(sp.ID()); ok {
		t.Fatal("finished job's lease was not withdrawn")
	}
	if len(m.heartbeats) != 2 || !slices.Equal(m.heartbeats[0], []string{sp.ID()}) || len(m.heartbeats[1]) != 0 {
		t.Fatalf("Heartbeat calls = %q, want the running job once, then none", m.heartbeats)
	}
	if st := s.Stats(); st.LeadershipLost != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHeartbeatCedesToNewerGeneration: a zombie ex-leader whose job
// was adopted elsewhere must stop heartbeating (but keep its maps
// clean) the moment its update is rejected — and never knock out the
// adopter's lease when its local run finishes.
func TestHeartbeatCedesToNewerGeneration(t *testing.T) {
	sp := testSpec()
	c := newFakeCluster("http://self:1")
	m := &fakeManager{}
	m.setJobs(sweepd.Job{ID: sp.ID(), Spec: sp, Status: sweepd.StatusRunning})
	s := newTestScheduler(t, c, m)

	s.tick() // leads at generation 1
	adopter := sweepd.JobLease{JobID: sp.ID(), Spec: sp, Owner: "http://peer:1", Generation: 2}
	if !c.UpdateLease(adopter) {
		t.Fatal("adopter's claim rejected by fake table")
	}

	s.tick() // rejected heartbeat → cede
	if st := s.Stats(); st.LeadershipLost != 1 {
		t.Fatalf("stats = %+v, want one leadership loss", st)
	}
	if l, _ := c.lease(sp.ID()); l.Owner != "http://peer:1" || l.Generation != 2 {
		t.Fatalf("lease = %+v, want the adopter's", l)
	}

	// The ceded job finishing locally must not drop the adopter's lease.
	m.setJobs(sweepd.Job{ID: sp.ID(), Spec: sp, Status: sweepd.StatusDone})
	s.tick()
	if l, ok := c.lease(sp.ID()); !ok || l.Owner != "http://peer:1" {
		t.Fatalf("adopter's lease gone after zombie finished: %+v (ok=%v)", l, ok)
	}
}

// TestHeartbeatCedesToPreexistingLease: a job discovered already under
// another member's lease (restart races) is never heartbeated at all.
func TestHeartbeatCedesToPreexistingLease(t *testing.T) {
	sp := testSpec()
	c := newFakeCluster("http://self:1")
	c.UpdateLease(sweepd.JobLease{JobID: sp.ID(), Spec: sp, Owner: "http://peer:1", Generation: 3})
	m := &fakeManager{}
	m.setJobs(sweepd.Job{ID: sp.ID(), Spec: sp, Status: sweepd.StatusRunning})
	s := newTestScheduler(t, c, m)

	s.tick()
	if l, _ := c.lease(sp.ID()); l.Owner != "http://peer:1" || l.Generation != 3 {
		t.Fatalf("lease = %+v, want untouched", l)
	}
	if st := s.Stats(); st.LeadershipLost != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAdoptionElectionAndClaim: an orphaned stale lease is adopted by
// the least-loaded member only; the adopter seeds the job from its own
// replica and claims it at the next generation in its own lease table
// (gossip carries it from there), with the cells the seed holds. A member that
// loses the election leaves the lease alone.
func TestAdoptionElectionAndClaim(t *testing.T) {
	sp := testSpec()

	c := newFakeCluster("http://self:1")
	m := &fakeManager{load: sweepd.LoadInfo{QueueDepth: 1}, replicaCheckpoints: map[string][]byte{sp.ID(): []byte("checkpoint-tail\n")}}
	s := newTestScheduler(t, c, m)
	past := time.Now().Add(-time.Minute)
	orphan := sweepd.JobLease{JobID: sp.ID(), Spec: sp, Owner: "http://dead:1", Generation: 1, Updated: past}
	c.UpdateLease(orphan)
	c.leases[sp.ID()] = orphan // pin the stale Updated stamp
	c.members = []sweepd.MemberInfo{
		{URL: "http://dead:1", State: "down"},
		{URL: "http://peer:1", State: "alive"},
	}

	// The peer looks idler: election goes to it, we do nothing.
	c.loads = []sweepd.MemberLoad{{URL: "http://peer:1", Load: sweepd.LoadInfo{}}}
	s.tick()
	if len(m.adopted) != 0 {
		t.Fatal("lost election but adopted anyway")
	}

	// Now we are the least loaded: adopt, seed, claim.
	m.load = sweepd.LoadInfo{}
	c.loads = []sweepd.MemberLoad{{URL: "http://peer:1", Load: sweepd.LoadInfo{QueueDepth: 5}}}
	s.tick()
	if len(m.adopted) != 1 || string(m.adopted[0].checkpoint) != "checkpoint-tail\n" {
		t.Fatalf("adopt calls = %+v", m.adopted)
	}
	l, _ := c.lease(sp.ID())
	if l.Owner != "http://self:1" || l.Generation != 2 || l.Completed != 1 {
		t.Fatalf("post-adoption lease = %+v, want generation 2 counting the seed's one cell", l)
	}
	if st := s.Stats(); st.Adoptions != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// The adopted job now heartbeats at generation 2.
	s.tick()
	if l, _ := c.lease(sp.ID()); l.Generation != 2 || l.Owner != "http://self:1" {
		t.Fatalf("heartbeat after adoption = %+v", l)
	}
}

// TestAdoptionWaitsForStaleness: a fresh lease from a down owner is
// not adopted before AdoptAfter — restarts get their grace period.
func TestAdoptionWaitsForStaleness(t *testing.T) {
	sp := testSpec()
	c := newFakeCluster("http://self:1")
	m := &fakeManager{}
	s := newTestScheduler(t, c, m)
	c.UpdateLease(sweepd.JobLease{JobID: sp.ID(), Spec: sp, Owner: "http://dead:1", Generation: 1, Updated: time.Now()})
	c.members = []sweepd.MemberInfo{{URL: "http://dead:1", State: "down"}}

	s.tick()
	if len(m.adopted) != 0 {
		t.Fatal("adopted a lease younger than AdoptAfter")
	}
	// An alive owner is never adopted from, however stale the lease.
	c.leases[sp.ID()] = sweepd.JobLease{JobID: sp.ID(), Spec: sp, Owner: "http://dead:1", Generation: 1, Updated: time.Now().Add(-time.Hour)}
	c.members = []sweepd.MemberInfo{{URL: "http://dead:1", State: "alive"}}
	s.tick()
	if len(m.adopted) != 0 {
		t.Fatal("adopted from an alive owner")
	}
}

// TestAdoptionSeedsFromLocalReplica: when the adopter already holds a
// verified replica of the job, adoption seeds from those local bytes.
func TestAdoptionSeedsFromLocalReplica(t *testing.T) {
	sp := testSpec()

	c := newFakeCluster("http://self:1")
	m := &fakeManager{
		replicaCheckpoints: map[string][]byte{sp.ID(): []byte("replica-bytes\n")},
	}
	s := newTestScheduler(t, c, m)
	past := time.Now().Add(-time.Minute)
	orphan := sweepd.JobLease{JobID: sp.ID(), Spec: sp, Owner: "http://dead:1", Generation: 1, Updated: past}
	c.UpdateLease(orphan)
	c.leases[sp.ID()] = orphan // pin the stale Updated stamp
	c.members = []sweepd.MemberInfo{
		{URL: "http://dead:1", State: "down"},
		{URL: "http://peer:1", State: "alive"},
	}
	c.loads = []sweepd.MemberLoad{{URL: "http://peer:1", Load: sweepd.LoadInfo{QueueDepth: 5}}}

	s.tick()
	if len(m.adopted) != 1 || string(m.adopted[0].checkpoint) != "replica-bytes\n" {
		t.Fatalf("adopt calls = %+v, want one seeded from the local replica", m.adopted)
	}
	if st := s.Stats(); st.Adoptions != 1 || st.ReplicaSeeds != 1 {
		t.Fatalf("stats = %+v, want Adoptions=1 ReplicaSeeds=1", st)
	}
}

// TestAdoptionRecordCarriesJobOwnerGeneration: the record of an adoption
// names the job, its new owner and the generation it leads at, the
// attributes an operator filters a job's history by, and where its seed
// came from: the adopter's replica, or none.
func TestAdoptionRecordCarriesJobOwnerGeneration(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sp      sweepd.Spec
		replica []byte
		seed    []string
	}{
		{"replica", testSpec(), []byte("replica-bytes\n"), []string{"seed=replica", "seed_bytes=14"}},
		{"no seed", testSpec(), nil, []string{"seed=none", "seed_bytes=0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			logs := captureLog(t)
			sp := tc.sp
			c := newFakeCluster("http://self:1")
			m := &fakeManager{replicaCheckpoints: map[string][]byte{sp.ID(): tc.replica}}
			s := newTestScheduler(t, c, m)
			c.leases[sp.ID()] = sweepd.JobLease{JobID: sp.ID(), Spec: sp, Owner: "http://dead:1", Generation: 4, Updated: time.Now().Add(-time.Minute)}
			c.members = []sweepd.MemberInfo{{URL: "http://dead:1", State: "down"}, {URL: "http://peer:1", State: "alive"}}
			c.loads = []sweepd.MemberLoad{{URL: "http://peer:1", Load: sweepd.LoadInfo{QueueDepth: 5}}}

			s.tick()
			if st := s.Stats(); st.Adoptions != 1 {
				t.Fatalf("stats = %+v, want one adoption", st)
			}
			var adopted []string
			for _, line := range strings.Split(logs.String(), "\n") {
				if strings.Contains(line, "sched: adopted job") {
					adopted = append(adopted, line)
				}
			}
			if len(adopted) != 1 {
				t.Fatalf("adoption records = %q, want one", adopted)
			}
			for _, attr := range append([]string{"job=" + sp.ID(), "owner=http://self:1", "generation=5"}, tc.seed...) {
				if !strings.Contains(adopted[0], attr) {
					t.Fatalf("adoption record %q lacks %s", adopted[0], attr)
				}
			}
		})
	}
}

// captureLog sends what the default slog logger writes to a buffer until
// the test ends. No test installs a handler, so slog's default one writes
// through the log package, whose output is what is swapped here.
func captureLog(t *testing.T) *lockedBuffer {
	t.Helper()
	b := new(lockedBuffer)
	prev := log.Writer()
	log.SetOutput(b)
	t.Cleanup(func() { log.SetOutput(prev) })
	return b
}

// lockedBuffer is a bytes.Buffer that goroutines outliving the call under
// test may still write to while the test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestAdoptionSkipsLeaseWithForeignJobID: a lease's JobID comes from a
// peer and is about to name a replica directory and a URL path. One that
// is not the content address of the spec it carries is left alone: no
// replica lookup, no fetch from a peer, no adoption, no new lease.
func TestAdoptionSkipsLeaseWithForeignJobID(t *testing.T) {
	c := newFakeCluster("http://self:1")
	m := &fakeManager{}
	s := newTestScheduler(t, c, m)
	orphan := sweepd.JobLease{JobID: "../evil", Spec: testSpec(), Owner: "http://dead:1", Generation: 1, Updated: time.Now().Add(-time.Minute)}
	c.leases[orphan.JobID] = orphan
	c.members = []sweepd.MemberInfo{
		{URL: "http://dead:1", State: "down"},
		{URL: "http://peer:1", State: "alive"},
	}
	c.loads = []sweepd.MemberLoad{{URL: "http://peer:1", Load: sweepd.LoadInfo{QueueDepth: 5}}}

	s.tick()
	if len(m.replicaAsked) != 0 || len(m.adopted) != 0 {
		t.Fatalf("manager saw ReplicaFiles%q and %d Adopt calls, want none", m.replicaAsked, len(m.adopted))
	}
	if l, _ := c.lease(orphan.JobID); l.Owner != orphan.Owner || l.Generation != 1 {
		t.Fatalf("lease = %+v, want untouched", l)
	}
	if st := s.Stats(); st.Adoptions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHeartbeatFollowsAdoptAfter pins the tick New derives from the
// adoption window: the default 30s keeps ncg-server's 2s, and shorter
// windows shrink the first-lease gap with them.
func TestHeartbeatFollowsAdoptAfter(t *testing.T) {
	for _, tc := range []struct{ adoptAfter, want time.Duration }{
		{0, 2 * time.Second}, // the 30s default
		{30 * time.Second, 2 * time.Second},
		{time.Hour, 2 * time.Second},
		{2 * time.Second, 133 * time.Millisecond},
		{300 * time.Millisecond, 20 * time.Millisecond},
	} {
		s, err := New(Options{Cluster: newFakeCluster("http://self:1"), Manager: &fakeManager{}, AdoptAfter: tc.adoptAfter})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.beat.Truncate(time.Millisecond); got != tc.want {
			t.Errorf("AdoptAfter %v: heartbeat %v, want %v", tc.adoptAfter, s.beat, tc.want)
		}
	}
}
