// Command ncg-server runs the sweepd daemon: a resumable
// sweep-orchestration service with a durable job store, a disk-backed
// cross-job result cache, and an HTTP JSON API.
//
// Usage:
//
//	ncg-server -addr :8080 -data ./sweepd-data [-workers 0] [-cache 65536] [-cache-dir DIR]
//	           [-job-ttl 24h] [-gc-interval 1m] [-max-jobs 4096] [-rate 0]
//	           [-peers URL,URL,...] [-peer-lease 64] [-peer-ttl 45s] [-peer-rate 0]
//	           [-advertise URL] [-probe-interval 5s] [-peer-backoff-max 2m]
//	           [-adopt-after 30s] [-tombstone-after 30m]
//	           [-replicas 2] [-replica-rate 0] [-pprof]
//
// Clustering: every daemon serves POST /peer/leases, computing contiguous
// cell ranges for remote leaders on its own worker pool (lease work draws
// from the same -workers gate as local jobs). A daemon started with
// -peers additionally shards its own sweeps across those peers in
// -peer-lease-sized ranges; a peer that goes silent for -peer-ttl has its
// lease reclaimed and recomputed locally. Deterministic per-cell seeding
// keeps results byte-identical with 0, 1, or N peers and across peer
// loss. -peer-rate rate-limits the /peer/* class separately from
// interactive traffic; GET /peer/members, the liveness probe, is exempt.
//
// Membership is live: -peers is only the seed list. A background loop
// pulls every known peer's member table from GET /peer/members each
// -probe-interval — one call that is both the health probe and one-hop
// gossip — demotes failing peers (alive → suspect → down) so jobs lease
// to alive peers only, and backs off down peers exponentially (capped at
// -peer-backoff-max, with jitter) so a flapping machine stops eating
// lease attempts until a probe readmits it. A daemon booted with
// -advertise announces its own URL to its seeds via POST /peer/hello, so
// it joins a running cluster — and starts receiving leases — without any
// restart of the existing daemons. A member down for -tombstone-after is
// decommissioned: removed from the table under a gossiped tombstone so
// hearsay cannot resurrect the URL (a fresh hello can; 0 disables).
//
// Scheduling: the daemons form one logical service. The member a sweep
// is POSTed to leads it, and its cells are leased across every alive
// member. Each leader heartbeats a per-job lease — spec, owner,
// generation, progress — into the gossiped member state; when a leader
// dies, the least-loaded survivor adopts its jobs after -adopt-after,
// recovers what it can of the checkpoint from surviving members, and
// resumes as the generation+1 leader. Deterministic per-cell seeding
// makes the adopted run's output byte-identical to an uninterrupted
// one, and the generation guard makes a revived ex-leader cede instead
// of split-braining.
//
// Replication: when a job completes, its leader pushes the immutable
// artifacts (spec, lifecycle record, checkpoint, trajectory sidecar) to
// the -replicas least-loaded alive members over POST /peer/replicas/{id}
// (kernel-hash verified on receipt; generation-guarded against zombie
// ex-leaders; 0 disables pushing). Replicas land under <data>/replicas
// and make finished results survive the leader's disk: any member
// holding one serves GET /sweeps/{id}, /results, /summary, and
// /trajectories for the job directly, a member holding none answers one
// 307 hop toward a holder, and adoption seeds from a local replica
// instead of refetching the checkpoint over HTTP. Replicas expire on
// the same -job-ttl clock as jobs. -replica-rate rate-limits the push
// endpoint as its own class (whole checkpoints per request — it must
// not drain the /peer/* bucket gossip depends on).
//
// The daemon bounds its own growth: done/failed jobs are garbage-
// collected -job-ttl after they finish (directory, cache spill segment,
// and summary state all reclaimed; 0 disables GC), so -job-ttl bounds
// how many jobs are kept; at most -max-jobs jobs run at once (a new spec
// submitted at the cap gets 429; finished jobs do not count), and -rate
// caps requests/second per endpoint class (read vs mutate; 429 +
// Retry-After beyond it, 0 = unlimited). Canceled jobs keep their
// checkpoints — they are resumable — and are never GC'd; purge them
// explicitly with DELETE /sweeps/{id}?purge=1.
//
// Jobs are content-addressed by their spec, checkpointed to
// <data>/<id>/results.jsonl one result-line at a time, and resumed
// automatically on restart — a daemon killed mid-sweep picks up where the
// checkpoint ends and produces byte-identical results. The result cache
// spills under <data>/cache (override with -cache-dir; "none" keeps it
// memory-only), so restarts keep their hit rate too: one append-only
// checkpoint-format file per kernel, <cache-dir>/<kernel>/segment.jsonl,
// with an in-memory offset index that is built by scanning a segment on
// its kernel's first touch and costs memory in proportion to the cells
// spilled for retained jobs' kernels. Per-cell spill files left in those
// directories by an older daemon are never read — cells held only there
// are cold after the upgrade, retained jobs' checkpoints re-warm the
// cache on resume as before — and are deleted with the kernel directory
// by GC or a purge.
//
// The workload is pluggable per spec: "dialect" selects the move rule
// (best-response, the default; swap; large-neighborhood) and "graph"
// the starting-network family (tree, gnp with "p", grid-delete with
// "p", pa-tree, random-regular with "q"), resolved through the
// registries in internal/sweepd. Every dialect shards, replicates, and
// caches identically — the serving layers carry no dialect-specific
// code — and legacy specs without the new fields keep their exact job
// IDs and kernel hashes. See the README's Dialects section.
//
// API:
//
//	POST   /sweeps              submit {"n":40,"alphas":[1,2],"ks":[2,1000],"seeds":5}
//	GET    /sweeps              list jobs
//	GET    /sweeps/{id}         job status
//	GET    /sweeps/{id}/results stream results as NDJSON; ?follow=1 tails a
//	                            running job to completion (terminal status
//	                            arrives as the X-Sweep-Status trailer)
//	GET    /sweeps/{id}/summary per-(α,k) mean ± 95% CI roll-ups, server-side
//	GET    /sweeps/{id}/trajectories
//	                            per-round trajectory sidecar as NDJSON (only
//	                            for specs with "trajectories": true)
//	DELETE /sweeps/{id}         cancel (checkpoint kept; 409 if already terminal)
//	DELETE /sweeps/{id}?purge=1 evict a terminal job entirely (store dir,
//	                            spill segment, summary state)
//	POST   /peer/leases         compute a cell range for a peer daemon
//	                            (the follower half of -peers sharding)
//	POST   /peer/hello          a booting daemon announces its -advertise URL
//	GET    /peer/members        this daemon's member table (url + state),
//	                            plus job leases and tombstones; the peers'
//	                            health probe (exempt from -peer-rate)
//	POST   /peer/jobs/claim     an adopter announces a job's new lease
//	POST   /peer/replicas/{id}  receive a finished job's verified replica
//	GET    /healthz             liveness + cache + cluster + replica stats
//	GET    /metrics             Prometheus text-format counters
//	GET    /debug/pprof/        net/http/pprof profiles (only with -pprof;
//	                            exempt from -rate like /healthz)
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/sweepd"
	"repro/internal/sweepd/cluster"
	"repro/internal/sweepd/sched"
	"repro/internal/sweepd/shard"
	"repro/internal/sweepd/store"
)

// splitPeers parses the -peers flag: empty segments and trailing slashes
// are dropped and duplicates collapse, so "http://a:1,,http://a:1/"
// yields one peer, not two lease streams against the same daemon.
func splitPeers(s string) []string {
	return sweepd.NormalizePeerURLs(strings.Split(s, ","))
}

// fatal records msg at level ERROR and ends the process with status 1.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

func main() {
	// One JSON record per line on stderr. SetDefault also routes the log
	// package through this handler, so http.Server's error log is JSON too.
	slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		data       = flag.String("data", "sweepd-data", "job store directory")
		workers    = flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
		cacheSz    = flag.Int("cache", 65536, "result cache entries in memory (0 disables caching entirely)")
		cacheDir   = flag.String("cache-dir", "", `result-cache spill directory ("" = <data>/cache, "none" = memory-only)`)
		jobTTL     = flag.Duration("job-ttl", 24*time.Hour, "GC done/failed jobs this long after they finish (0 disables GC)")
		gcInterval = flag.Duration("gc-interval", time.Minute, "how often the GC pass runs")
		maxJobs    = flag.Int("max-jobs", 4096, "running-job cap; a new spec submitted at the cap gets 429, finished jobs do not count (0 = unlimited)")
		rate       = flag.Float64("rate", 0, "per-endpoint-class request limit in req/s; beyond it 429 + Retry-After (0 = unlimited)")
		peers      = flag.String("peers", "", "comma-separated seed peer base URLs to shard sweeps across (e.g. http://10.0.0.2:8080)")
		peerLease  = flag.Int("peer-lease", 64, "cells per peer lease (smaller = finer balancing, larger = less HTTP overhead)")
		peerTTL    = flag.Duration("peer-ttl", 45*time.Second, "reclaim a lease whose stream goes silent for this long")
		peerRate   = flag.Float64("peer-rate", 0, "request limit for the /peer/* endpoint class in req/s (0 = unlimited)")
		advertise  = flag.String("advertise", "", "this daemon's own base URL, announced to seed peers so it joins their clusters live (e.g. http://10.0.0.3:8080)")
		probeIvl   = flag.Duration("probe-interval", 5*time.Second, "peer health-probe cadence")
		backoffMax = flag.Duration("peer-backoff-max", 2*time.Minute, "cap on the probe backoff for down peers")
		adoptAfter = flag.Duration("adopt-after", 30*time.Second, "adopt a job whose leader's lease has gone stale for this long")
		tombAfter  = flag.Duration("tombstone-after", 30*time.Minute, "decommission a member down this long: drop it under a gossiped tombstone (0 disables)")
		replicas   = flag.Int("replicas", 2, "push each finished job's artifacts to this many least-loaded alive members (0 disables pushing; receiving stays on)")
		replRate   = flag.Float64("replica-rate", 0, "request limit for POST /peer/replicas/{id} in req/s (0 = unlimited)")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default; exempt from -rate like /healthz)")
	)
	flag.Parse()

	jobStore, err := sweepd.OpenStore(*data)
	if err != nil {
		fatal("opening the job store", "err", err)
	}
	var cache *sweepd.Cache
	if *cacheDir == "none" {
		cache = sweepd.NewCache(*cacheSz)
	} else {
		dir := *cacheDir
		if dir == "" {
			dir = filepath.Join(*data, "cache")
		}
		if cache, err = sweepd.NewDiskCache(*cacheSz, dir); err != nil {
			fatal("opening the result cache", "err", err)
		}
	}
	mgr := sweepd.NewManager(jobStore, cache, *workers)
	mgr.SetMaxJobs(*maxJobs)
	// Replica storage is always on (receiving costs nothing until a peer
	// pushes); -replicas only governs how many copies this daemon pushes
	// of its OWN finished jobs.
	replicaSet, err := store.OpenReplicaSet(filepath.Join(*data, "replicas"))
	if err != nil {
		fatal("opening the replica store", "err", err)
	}
	mgr.SetReplicas(replicaSet)
	cfg := sweepd.Config{Rate: *rate, PeerRate: *peerRate, ReplicaRate: *replRate}
	// Every daemon runs a membership registry, even a bare one: it must
	// accept POST /peer/hello so late-booting daemons can join a cluster
	// this daemon anchors. Seeds (-peers) start alive; the probe loop
	// demotes dead ones, backs off flapping ones, and learns newcomers
	// from hellos and one-hop gossip.
	seeds := splitPeers(*peers)
	// Fail fast on malformed URLs: a typo'd -advertise would be 400-
	// rejected by every seed forever (the daemon would silently never
	// join), and a typo'd seed would be probed at the backoff cap for
	// the life of the process.
	if *advertise != "" && !sweepd.ValidPeerURL(sweepd.NormalizePeerURL(*advertise)) {
		fatal("-advertise is not an absolute http(s) base URL (e.g. http://10.0.0.3:8080)", "member", *advertise)
	}
	for _, s := range seeds {
		if !sweepd.ValidPeerURL(s) {
			fatal("-peers entry is not an absolute http(s) base URL", "member", s)
		}
	}
	registry := cluster.New(cluster.Options{
		Self:           *advertise,
		Seeds:          seeds,
		ProbeInterval:  *probeIvl,
		BackoffMax:     *backoffMax,
		TombstoneAfter: *tombAfter,
		SelfLoad:       mgr.Load,
	})
	pool := shard.NewFromSource(registry, shard.Options{LeaseCells: *peerLease, LeaseTTL: *peerTTL})
	mgr.SetExecutorProvider(pool)
	cfg.PeerStats = pool.Stats
	cfg.Cluster = registry
	var replicator *sweepd.Replicator
	if *replicas > 0 {
		replicator = sweepd.NewReplicator(sweepd.ReplicatorOptions{
			Store:   jobStore,
			Fanout:  *replicas,
			Self:    registry.Self,
			Targets: registry.AliveLoads,
			Holders: registry.ReplicaHolders,
			Generation: func(id string) uint64 {
				// The manifest carries our lease generation so a zombie
				// ex-leader's late push cannot clobber the adopter's copy.
				for _, l := range registry.Leases() {
					if l.JobID == id {
						return l.Generation
					}
				}
				return 1
			},
		})
		mgr.OnFinish(replicator.JobFinished)
		cfg.ReplicaStats = replicator.Stats
	}
	scheduler, err := sched.New(sched.Options{
		Cluster:    registry,
		Manager:    mgr,
		AdoptAfter: *adoptAfter,
	})
	if err != nil {
		fatal("starting the scheduler", "err", err)
	}
	cfg.Sched = scheduler
	cfg.SchedStats = scheduler.Stats
	if len(seeds) > 0 || *advertise != "" {
		slog.Info("cluster membership", "member", *advertise, "seeds", seeds)
	}
	var handler http.Handler = sweepd.NewHandlerConfig(mgr, cfg)
	if *pprofOn {
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
	if err := mgr.Resume(); err != nil {
		fatal("resuming jobs", "err", err)
	}
	mgr.StartGC(*jobTTL, *gcInterval)

	srv := &http.Server{Addr: *addr, Handler: handler}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listening", "addr", *addr, "err", err)
	}
	slog.Info("ncg-server listening", "addr", ln.Addr().String(), "data", *data)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("serving", "err", err)
		}
	}()
	// Announce only after the listener is accepting: a seed that learns
	// this daemon from the hello may lease to it immediately, and a
	// connection-refused there would demote the brand-new joiner before
	// it ever served a cell.
	registry.Start()
	scheduler.Start()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	slog.Info("shutting down: canceling sweeps, flushing checkpoints")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx) //nolint:errcheck
	scheduler.Close()
	registry.Close()
	mgr.Close()
	if replicator != nil {
		replicator.Close()
	}
}
