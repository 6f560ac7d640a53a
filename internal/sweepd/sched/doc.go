// Package sched makes a sweepd cluster a single logical service: any
// member accepts a sweep, the least-loaded member runs it, and a dead
// leader's jobs are adopted by the survivors.
//
// # Architecture
//
// The scheduler is a thin layer over two seams it does not own: the
// cluster registry (membership, capacity, and the job-lease table —
// internal/sweepd/cluster) and the job manager (admission and execution
// — sweepd.Manager). It adds three behaviors:
//
// Placement. POST /sweeps routes through Scheduler.SubmitSweep. The
// submission runs locally unless some alive peer's last-probed load
// (queue depth, then busy workers, then running jobs — sweepd.LoadInfo)
// is strictly below the local manager's live load; then the spec is
// forwarded to the least-loaded peer over POST /peer/jobs, the shared
// sweepd.PeerClient waiting out 429s for up to 5s. A failed forward falls
// back to local admission, and only if the local quota also refuses
// does the client get a 307 with the chosen peer in Location. Ties
// prefer local execution, so an idle cluster behaves exactly like a
// set of independent daemons.
//
// Leadership. Every heartbeat tick the scheduler writes one JobLease
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
// lease has not been refreshed for AdoptAfter, every member runs the
// same deterministic election: the least-loaded alive member (URL as
// tie-break) adopts. The adopter fetches the checkpoint tail from any
// alive member that still has bytes (usually none — the dead leader
// had the file), seeds its local checkpoint with the maximal canonical
// prefix via Manager.Adopt, resumes the job as generation+1 leader,
// and broadcasts the claim over POST /peer/jobs/claim so peers (and
// any racing adopter) learn before the next gossip cycle. Per-cell
// determinism makes the recovered checkpoint byte-identical to an
// uninterrupted run no matter how much of the tail was recovered.
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
