// Package node assembles one sweepd daemon: the job store, the result
// cache, the manager, the membership registry, the lease pool, the
// replicator and the scheduler, wired in one order for cmd/ncg-server and
// the end-to-end tests alike. Config mirrors ncg-server's flags; New wires
// the parts, Serve puts them on a listener and Close takes them down.
package node

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/sweepd"
	"repro/internal/sweepd/cluster"
	"repro/internal/sweepd/sched"
	"repro/internal/sweepd/shard"
	"repro/internal/sweepd/store"
)

// Config holds one field per ncg-server flag except -addr; the flag
// named in each comment documents the field.
type Config struct {
	Data          string        // -data
	Workers       int           // -workers
	Cache         int           // -cache
	JobTTL        time.Duration // -job-ttl
	MaxJobs       int           // -max-jobs
	Rate          float64       // -rate
	Peers         string        // -peers: comma-separated seed URLs
	PeerLease     int           // -peer-lease
	PeerRate      float64       // -peer-rate
	Advertise     string        // -advertise
	ProbeInterval time.Duration // -probe-interval
	AdoptAfter    time.Duration // -adopt-after
	Replicas      int           // -replicas
	ReplicaRate   float64       // -replica-rate
	Pprof         bool          // -pprof
}

// Fixed, not flags: the GC pass cadence and how long a member stays down
// before it is tombstoned. The lease TTL and the down-peer backoff cap
// are the constants shard.leaseTTL (45s) and cluster.backoffCap (2m).
const (
	gcInterval     = time.Minute
	tombstoneAfter = 30 * time.Minute
)

// DefaultConfig returns ncg-server's flag defaults.
func DefaultConfig() Config {
	return Config{
		Data:          "sweepd-data",
		Cache:         65536,
		JobTTL:        24 * time.Hour,
		MaxJobs:       4096,
		PeerLease:     64,
		ProbeInterval: 5 * time.Second,
		AdoptAfter:    30 * time.Second,
		Replicas:      2,
	}
}

// Node is one assembled daemon. Its parts are exported for tests that
// drive them directly.
type Node struct {
	Store     *sweepd.Store
	Manager   *sweepd.Manager
	Registry  *cluster.Registry
	Replicas  *store.ReplicaSet
	Scheduler *sched.Scheduler

	replicator *sweepd.Replicator // nil when Config.Replicas is 0
	srv        *http.Server
	jobTTL     time.Duration
	// serving is read-held by every running handler (see track).
	serving sync.RWMutex
}

// New opens cfg.Data's job store, result cache and replica set and wires
// the daemon over them. No job runs or expires, and nothing is announced
// or scheduled, until Serve.
func New(cfg Config) (_ *Node, err error) {
	// Fail fast on malformed URLs: a typo'd -advertise would be 400-
	// rejected by every seed forever (the daemon would silently never
	// join), and a typo'd seed would be probed at the backoff cap for the
	// life of the process.
	if cfg.Advertise != "" && !sweepd.ValidPeerURL(sweepd.NormalizePeerURL(cfg.Advertise)) {
		return nil, fmt.Errorf("-advertise %q is not an absolute http(s) base URL (e.g. http://10.0.0.3:8080)", cfg.Advertise)
	}
	seeds := sweepd.NormalizePeerURLs(strings.Split(cfg.Peers, ","))
	for _, s := range seeds {
		if !sweepd.ValidPeerURL(s) {
			return nil, fmt.Errorf("-peers entry %q is not an absolute http(s) base URL", s)
		}
	}

	n := &Node{jobTTL: cfg.JobTTL}
	if n.Store, err = sweepd.OpenStore(cfg.Data); err != nil {
		return nil, fmt.Errorf("opening the job store: %w", err)
	}
	n.Manager = sweepd.NewManager(n.Store, sweepd.NewCache(cfg.Cache), cfg.Workers)
	defer func() {
		if err != nil {
			n.Manager.Close()
			if n.replicator != nil {
				n.replicator.Close()
			}
		}
	}()
	n.Manager.SetMaxJobs(cfg.MaxJobs)
	// Replica storage is always on (receiving costs nothing until a peer
	// pushes); Replicas only governs how many copies this daemon pushes of
	// its OWN finished jobs.
	if n.Replicas, err = store.OpenReplicaSet(filepath.Join(cfg.Data, "replicas")); err != nil {
		return nil, fmt.Errorf("opening the replica store: %w", err)
	}
	n.Manager.SetReplicas(n.Replicas)
	hc := sweepd.Config{Rate: cfg.Rate, PeerRate: cfg.PeerRate, ReplicaRate: cfg.ReplicaRate}

	// Every daemon runs a membership registry, even a bare one: it must
	// accept POST /peer/hello so late-booting daemons can join a cluster
	// this daemon anchors. Seeds start alive; the probe loop demotes dead
	// ones, backs off flapping ones, and learns newcomers from hellos and
	// one-hop gossip.
	n.Registry = cluster.New(cluster.Options{
		Self:           cfg.Advertise,
		Seeds:          seeds,
		ProbeInterval:  cfg.ProbeInterval,
		TombstoneAfter: tombstoneAfter,
		SelfLoad:       n.Manager.Load,
	})
	pool := shard.NewFromSource(n.Registry, shard.Options{LeaseCells: cfg.PeerLease})
	n.Manager.SetExecutorProvider(pool)
	hc.PeerStats = pool.Stats
	hc.Cluster = n.Registry
	if cfg.Replicas > 0 {
		reg := n.Registry
		n.replicator = sweepd.NewReplicator(sweepd.ReplicatorOptions{
			Store:   n.Store,
			Fanout:  cfg.Replicas,
			Self:    reg.Self,
			Targets: reg.AliveLoads,
			Holders: reg.ReplicaHolders,
			Generation: func(id string) uint64 {
				// The manifest carries our lease generation so a zombie
				// ex-leader's late push cannot clobber the adopter's copy.
				for _, l := range reg.Leases() {
					if l.JobID == id {
						return l.Generation
					}
				}
				return 1
			},
		})
		n.Manager.OnFinish(n.replicator.JobFinished)
		hc.ReplicaStats = n.replicator.Stats
	}
	if n.Scheduler, err = sched.New(sched.Options{
		Cluster:    n.Registry,
		Manager:    n.Manager,
		AdoptAfter: cfg.AdoptAfter,
	}); err != nil {
		return nil, err
	}
	hc.SchedStats = n.Scheduler.Stats
	if len(seeds) > 0 || cfg.Advertise != "" {
		slog.Info("cluster membership", "member", cfg.Advertise, "seeds", seeds)
	}

	var handler http.Handler = sweepd.NewHandlerConfig(n.Manager, hc)
	if cfg.Pprof {
		// An outer mux routes the profiling endpoints before the sweepd
		// handler, so they get their own rate-limit exemption (like
		// /healthz: a profile grab during an incident must not compete
		// with — or be 429'd by — API traffic). Off by default: pprof
		// exposes heap contents and must be opted into per deployment.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		slog.Info("pprof enabled", "path", "/debug/pprof/")
	}
	n.srv = &http.Server{Handler: n.track(handler)}
	return n, nil
}

// Serve resumes the store's jobs, starts the TTL GC, serves the HTTP API
// on ln, then starts the registry and the scheduler: a daemon announces
// itself only once it is listening, so a seed that learns it from the
// hello may lease to it at once. The channel receives the error that
// stopped the server (unless Close did) or, with ln closed and nothing
// started, the one that kept the jobs from resuming.
func (n *Node) Serve(ln net.Listener) <-chan error {
	errc := make(chan error, 1)
	if err := n.Manager.Resume(); err != nil {
		ln.Close()
		errc <- fmt.Errorf("resuming jobs: %w", err)
		return errc
	}
	n.Manager.StartGC(n.jobTTL, gcInterval)
	go func() {
		if err := n.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	n.Registry.Start()
	n.Scheduler.Start()
	return errc
}

// track holds serving for each of h's calls, so Close can wait them out:
// a stopped http.Server accepts nothing new, but the handlers it started
// run on, and a replica push could land on disk after Close returned.
func (n *Node) track(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !n.serving.TryRLock() { // Close has begun
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		defer n.serving.RUnlock()
		h.ServeHTTP(w, r)
	})
}

// Close stops the daemon: the server (draining requests until ctx ends,
// then cutting the streams still open, and waiting for every handler to
// return), the scheduler, the registry, the manager and the replicator,
// in that order. Checkpoints stay on disk and resume when a node New
// built over the same directory Serves; an already canceled ctx is the
// abrupt stop of a killed process. Call it once.
func (n *Node) Close(ctx context.Context) {
	if err := n.srv.Shutdown(ctx); err != nil {
		n.srv.Close() //nolint:errcheck // ends the streams Shutdown waited on
	}
	n.serving.Lock() // a cut stream's handler returns once its request context ends
	n.Scheduler.Close()
	n.Registry.Close()
	n.Manager.Close()
	if n.replicator != nil {
		n.replicator.Close()
	}
}
