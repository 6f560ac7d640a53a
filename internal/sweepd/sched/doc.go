// Package sched makes a sweepd cluster a single logical service: any
// member accepts a sweep and leads it, and a dead leader's jobs are
// adopted by the survivors.
//
// # Architecture
//
// The scheduler is a thin layer over two seams it does not own: the
// cluster registry (membership, capacity, and the job-lease table —
// internal/sweepd/cluster) and the job manager (admission and execution
// — sweepd.Manager). It adds three behaviors:
//
// Placement. The member a sweep is POSTed to admits it and leads it;
// Scheduler.SubmitSweep is Manager.Submit. The work is spread below
// that, per cell range: the shard pool leases the job's cells to every
// alive member. A member already running its -max-jobs jobs answers
// 429.
//
// Leadership. Every heartbeat tick (a fifteenth of AdoptAfter, at most
// 2s, so a job's first lease goes out well inside the window in which
// its leader's death would be noticed) the scheduler writes one JobLease
// per locally running job into the registry: job ID, the full spec
// (so any member can restart the job from gossip state alone), owner
// URL, generation, and checkpoint progress. Leases ride the existing
// gossip cycle (GET /peer/members, which is also the health probe), so
// within about one probe interval every member knows every running job
// and who leads it. The registry never expires a lease: it stays until
// the job ends and the next heartbeat drops it (DropLease), whatever
// the probe interval and heartbeat are, and peers drop their copies on
// their next pull from the leader.
//
// Adoption. When a lease's owner is down (or tombstoned away) and the
// lease has not been refreshed for AdoptAfter on the daemon's clock
// (sweepd.Time, which paces the heartbeat too), every member runs the
// same deterministic election: the least-loaded alive member (URL as
// tie-break) adopts. The adopter fetches the checkpoint tail from any
// alive member that still has bytes (usually none — the dead leader
// had the file), seeds its local checkpoint with the maximal canonical
// prefix via Manager.Adopt, and resumes the job as generation+1 leader
// by writing that lease into its own registry. Gossip carries it from
// there: every member (a racing adopter, and a zombie ex-leader that
// answers probes again, included) pulls it within one probe interval.
// Per-cell determinism makes the recovered checkpoint byte-identical to
// an uninterrupted run no matter how much of the tail was recovered.
//
// # Split-brain guard
//
// The generation number is the only authority over a job. A lease
// update wins the table only if its generation is strictly higher, or
// equal with the same owner (a refresh) or a lexicographically smaller
// owner (the tie-break two concurrent adopters converge on). A zombie
// ex-leader that comes back and resumes its job keeps computing — the
// work is deterministic, so its results are correct — but its gen-N
// heartbeats lose against the adopter's gen-N+1 lease everywhere; it
// "cedes": it stops heartbeating the job and never again claims to
// lead it. No cancellation is needed for correctness, and none is
// attempted: two daemons computing one grid waste cycles but cannot
// diverge.
package sched
