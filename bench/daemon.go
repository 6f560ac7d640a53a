package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/sweepd"
	"repro/internal/sweepd/cluster"
	"repro/internal/sweepd/sched"
	"repro/internal/sweepd/shard"
	"repro/internal/sweepd/store"
)

// The ncg-server flag defaults the benchmark boots with. ProbeInterval
// is the one deliberate difference (5s in ncg-server): a 5s probe cycle
// would make mesh formation alone outlast a whole run.
const (
	cacheEntries  = 65536
	leaseCells    = 64
	replicaFanout = 2
	probeInterval = 100 * time.Millisecond

	soloWorkers   = 2 // -workers of the lone daemon
	memberWorkers = 1 // -workers of each cluster member
)

// daemon is one in-process ncg-server, wired from the same public
// constructors in the same order as cmd/ncg-server/main.go, listening
// on real loopback TCP.
type daemon struct {
	url   string
	store *sweepd.Store
	cache *sweepd.Cache
	mgr   *sweepd.Manager
	reg   *cluster.Registry
	sch   *sched.Scheduler
	rep   *sweepd.Replicator
	srv   *http.Server
}

// bootDaemon starts a daemon over dir. clustered daemons advertise their
// own URL, schedule and replicate (ncg-server with -advertise); a solo
// daemon is ncg-server with no cluster flags: the registry and scheduler
// still run, with nobody to talk to.
func bootDaemon(dir string, workers int, clustered bool, seeds []string) (_ *daemon, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{url: "http://" + ln.Addr().String()}
	defer func() {
		if err != nil {
			ln.Close()
			if d.mgr != nil {
				d.mgr.Close()
			}
		}
	}()
	if d.store, err = sweepd.OpenStore(dir); err != nil {
		return nil, err
	}
	if d.cache, err = sweepd.NewDiskCache(cacheEntries, filepath.Join(dir, "cache")); err != nil {
		return nil, err
	}
	replicaSet, err := store.OpenReplicaSet(filepath.Join(dir, "replicas"))
	if err != nil {
		return nil, err
	}
	d.mgr = sweepd.NewManager(d.store, d.cache, workers)
	d.mgr.SetMaxJobs(4096)
	d.mgr.SetReplicas(replicaSet)
	self := ""
	if clustered {
		self = d.url
	}
	d.reg = cluster.New(cluster.Options{
		Self:           self,
		Seeds:          seeds,
		ProbeInterval:  probeInterval,
		TombstoneAfter: 30 * time.Minute,
		SelfLoad:       d.mgr.Load,
	})
	pool := shard.NewFromSource(d.reg, shard.Options{LeaseCells: leaseCells})
	d.mgr.SetExecutorProvider(pool)
	cfg := sweepd.Config{PeerStats: pool.Stats, Cluster: d.reg}
	d.rep = sweepd.NewReplicator(sweepd.ReplicatorOptions{
		Store:   d.store,
		Fanout:  replicaFanout,
		Self:    d.reg.Self,
		Targets: d.reg.AliveLoads,
		Holders: d.reg.ReplicaHolders,
		Generation: func(id string) uint64 {
			for _, l := range d.reg.Leases() {
				if l.JobID == id {
					return l.Generation
				}
			}
			return 1
		},
	})
	d.mgr.OnFinish(d.rep.JobFinished)
	cfg.ReplicaStats = d.rep.Stats
	if d.sch, err = sched.New(sched.Options{Cluster: d.reg, Manager: d.mgr}); err != nil {
		return nil, err
	}
	cfg.Sched = d.sch
	cfg.SchedStats = d.sch.Stats
	if err = d.mgr.Resume(); err != nil {
		return nil, err
	}
	d.mgr.StartGC(24*time.Hour, time.Minute)
	d.srv = &http.Server{Handler: sweepd.NewHandlerConfig(d.mgr, cfg)}
	go d.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	d.reg.Start()
	d.sch.Start()
	return d, nil
}

// close stops the daemon in ncg-server's shutdown order and waits for
// every goroutine it owns.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.srv.Close() //nolint:errcheck // streams still open after the grace period
	}
	d.sch.Close()
	d.reg.Close()
	d.mgr.Close()
	d.rep.Close()
}

// topology is the set of daemons one workload runs against; members[0]
// is the only one clients submit to.
type topology struct {
	members []*daemon
	meshS   float64 // boot → full mesh, 0 when solo
}

func (t *topology) entry() *daemon { return t.members[0] }

// close stops every member; a second call is a no-op.
func (t *topology) close() {
	for _, d := range t.members {
		d.close()
	}
	t.members = nil
}

// byURL finds the member a placement header names.
func (t *topology) byURL(url string) *daemon {
	for _, d := range t.members {
		if d.url == url {
			return d
		}
	}
	return nil
}

// bootTopology starts one solo daemon (workers=2) or an n-member
// cluster (workers=1 each, members 1.. seeded on member 0) and blocks
// until every member has sampled a load for every other — the point
// after which placement sees the whole cluster.
func bootTopology(dir string, n int) (*topology, error) {
	t := &topology{}
	if n == 1 {
		d, err := bootDaemon(filepath.Join(dir, "d0"), soloWorkers, false, nil)
		if err != nil {
			return nil, err
		}
		t.members = []*daemon{d}
		return t, nil
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		var seeds []string
		if i > 0 {
			seeds = []string{t.members[0].url}
		}
		d, err := bootDaemon(filepath.Join(dir, fmt.Sprintf("d%d", i)), memberWorkers, true, seeds)
		if err != nil {
			t.close()
			return nil, err
		}
		t.members = append(t.members, d)
	}
	deadline := start.Add(20 * time.Second)
	for _, d := range t.members {
		for len(d.reg.AliveLoads()) < n-1 {
			if time.Now().After(deadline) {
				t.close()
				return nil, errors.New("cluster mesh never formed")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	t.meshS = time.Since(start).Seconds()
	return t, nil
}
