// Package shard scales sweepd horizontally: a Pool of peer daemons acts
// as a pluggable dynamics.Executor that leases contiguous cell ranges of
// a job's canonical grid to followers over HTTP and merges their streamed
// results with local computation.
//
// # Architecture
//
// Every ncg-server daemon is symmetric: it serves POST /peer/leases as a
// follower (computing leased ranges on its own worker pool, drawing from
// the same gate as its local jobs) and, when started with -peers, acts as
// a leader whose jobs fan out through this package. There is no separate
// coordinator process and no shared storage — the only coupling is the
// lease protocol.
//
// The flow for one job:
//
//	Manager.runJob → Manager.sweepLines
//	  └─ dynamics.SweepContext     (sequencing: Have, hold-back, OnResult)
//	       └─ shard executor       (this package)
//	            ├─ local consumer  → dynamics.LocalExecutor
//	            └─ one goroutine per peer → POST /peer/leases
//	                                        (sweepd.PeerClient)
//
// The executor splits the job's todo indices into maximal consecutive
// runs capped at the configured lease size, then lets the local pool and
// the peer goroutines pull ranges from one shared queue — natural load
// balancing with zero planning: fast peers simply pull more leases.
//
// # Peer sources
//
// Which peers a job leases to comes from a PeerSource, snapshotted once
// per job so membership changes never touch a running job.
// NewFromSource takes the source — in production the cluster.Registry
// (a -peers list seeds it), whose AlivePeers() excludes suspect and down
// members; the tests' fixed list lives in shard_unit_test.go. Every failed
// lease is reported back to the source, so the registry demotes the peer
// immediately and subsequent jobs skip it until a health probe readmits
// it. See package cluster for discovery (hello/gossip), health probing,
// and backoff.
//
// # Determinism
//
// Per-cell seeding derives each cell's RNG from the job's base seed and
// the cell coordinates alone, so a cell computes to identical bytes on
// any daemon. Followers stream canonical ncgio CellResult lines in
// canonical order; the leader unmarshals each line, verifies its cell
// coordinates against the leased range, and feeds the Result into the
// same sequencing layer local results use. Checkpoints are therefore
// byte-identical with 0, 1, or N peers, and across peer loss mid-sweep —
// the property the two-daemon end-to-end tests pin down.
//
// # Failure model
//
// A lease is presumed dead when its stream yields no bytes (results or
// blank heartbeat lines, which followers interleave while long cells
// compute) for 45 s on the daemon's clock (sweepd.Time). The leader then
// cancels the request, counts a lease failure, recomputes the undelivered
// remainder of that range locally, and stops leasing to that peer for the
// rest of the Execute call (the next job probes it afresh). Cells streamed
// back are kept — a half-served lease wastes only its tail. The same
// reclaim path covers rejected leases (non-2xx), disconnects, short
// streams, and malformed or misaligned lines. Followers never push work
// and leaders never retry a range on another peer before falling back
// locally, so no cell can be double-appended and a sweep always
// completes as long as the leader itself survives.
package shard
