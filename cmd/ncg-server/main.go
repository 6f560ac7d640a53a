// Command ncg-server runs the sweepd daemon: a resumable
// sweep-orchestration service with a durable job store, a disk-backed
// cross-job result cache, and an HTTP JSON API. Daemons started with
// -peers or -advertise form one cluster: a sweep is led by the member it
// is POSTed to, its cells are leased across every alive member, a dead
// leader's jobs are adopted after -adopt-after, and finished jobs are
// replicated to -replicas members that then serve their reads.
//
// The command parses its flags (ncg-server -h lists them) into a
// node.Config, listens on -addr and stops the node on SIGINT or SIGTERM;
// internal/sweepd/node assembles the daemon, and sweepd.NewHandlerConfig
// documents its routes. The README's daemon quickstart says what each
// flag governs.
package main

import (
	"context"
	"flag"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/sweepd/node"
)

// fatal records msg at level ERROR and ends the process with status 1.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// newFlagSet defines ncg-server's flags over cfg and returns them with
// -addr's value. The README's ncg-server flag table lists the same names
// and defaults; readme_test.go holds it to ncg-server -h.
func newFlagSet(cfg *node.Config) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	fs.StringVar(&cfg.Data, "data", cfg.Data, "job store directory")
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "sweep worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.Cache, "cache", cfg.Cache, "result cache entries in memory (0 disables caching entirely)")
	fs.DurationVar(&cfg.JobTTL, "job-ttl", cfg.JobTTL, "GC done/failed jobs this long after they finish (0 disables GC)")
	fs.IntVar(&cfg.MaxJobs, "max-jobs", cfg.MaxJobs, "running-job cap; a new spec submitted at the cap gets 429, finished jobs do not count (0 = unlimited)")
	fs.Float64Var(&cfg.Rate, "rate", cfg.Rate, "per-endpoint-class request limit in req/s; beyond it 429 + Retry-After (0 = unlimited)")
	fs.StringVar(&cfg.Peers, "peers", cfg.Peers, "comma-separated seed peer base URLs to shard sweeps across (e.g. http://10.0.0.2:8080)")
	fs.IntVar(&cfg.PeerLease, "peer-lease", cfg.PeerLease, "cells per peer lease (smaller = finer balancing, larger = less HTTP overhead)")
	fs.Float64Var(&cfg.PeerRate, "peer-rate", cfg.PeerRate, "request limit for the /peer/* endpoint class in req/s (0 = unlimited)")
	fs.StringVar(&cfg.Advertise, "advertise", cfg.Advertise, "this daemon's own base URL, announced to seed peers so it joins their clusters live (e.g. http://10.0.0.3:8080)")
	fs.DurationVar(&cfg.ProbeInterval, "probe-interval", cfg.ProbeInterval, "peer health-probe cadence")
	fs.DurationVar(&cfg.AdoptAfter, "adopt-after", cfg.AdoptAfter, "adopt a job whose leader's lease has gone stale for this long")
	fs.IntVar(&cfg.Replicas, "replicas", cfg.Replicas, "push each finished job's artifacts to this many least-loaded alive members (0 disables pushing; receiving stays on)")
	fs.Float64Var(&cfg.ReplicaRate, "replica-rate", cfg.ReplicaRate, "request limit for POST /peer/replicas/{id} in req/s (0 = unlimited)")
	fs.BoolVar(&cfg.Pprof, "pprof", cfg.Pprof, "expose net/http/pprof under /debug/pprof/ (off by default; exempt from -rate like /healthz)")
	return fs, addr
}

func main() {
	// One JSON record per line on stderr. SetDefault also routes the log
	// package through this handler, so http.Server's error log is JSON too.
	slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	cfg := node.DefaultConfig()
	fs, addr := newFlagSet(&cfg)
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError: a bad flag exits 2

	n, err := node.New(cfg)
	if err != nil {
		fatal("starting the daemon", "err", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listening", "addr", *addr, "err", err)
	}
	slog.Info("ncg-server listening", "addr", ln.Addr().String(), "data", cfg.Data)
	serveErr := n.Serve(ln)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case <-stop:
	case err := <-serveErr:
		fatal("serving", "err", err)
	}
	slog.Info("shutting down: canceling sweeps, flushing checkpoints")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.Close(ctx)
}
