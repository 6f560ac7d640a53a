// Package cluster gives sweepd live membership: daemons join and leave a
// running cluster without restarts, and flapping peers are backed off
// instead of stalling every job's lease attempts.
//
// # Discovery
//
// A Registry starts from the operator's seed list (-peers) and then
// learns the rest of the cluster on its own:
//
//   - A booting daemon started with -advertise announces itself with
//     POST /peer/hello {advertise_url} to every peer it successfully
//     probes (once per aliveness epoch). The receiver registers it as an
//     alive member immediately — the announcer just proved it is
//     reachable — so the very next job can lease to it.
//   - Every daemon serves its member table at GET /peer/members, and
//     every probe cycle pulls the table of each due peer: that pull is
//     the probe. Newly learned URLs are one-hop gossip: they enter as
//     suspect and a probe (due immediately) verifies them before any
//     lease rides on them.
//
// Together these give eventual full-mesh knowledge with one round of
// indirection: a joiner hellos one seed, the seed's table shows the
// joiner to everyone who polls it, and the joiner's own pulls teach it
// the members the seed already knew.
//
// Discovery does not wait for the probe cadence. A hello from a URL that
// is new or was down, and a member added by gossip, leave that member
// due and wake the probe loop (a one-slot channel beside its ticker, so
// bursts coalesce); the woken cycle dials exactly the members whose
// deadline has passed — the newcomer, not the whole table. A join
// therefore costs each existing member one pull and one hello of the
// joiner, the hello back lands on a member already known and wakes
// nothing, and the mesh — loads included — is complete a few round trips
// after the joiner's first hello, whatever ProbeInterval is. Ticks still
// pace everything periodic: health checks, load refresh, backoff.
//
// Every registry also mints a random per-process instance ID, served at
// the head of its GET /peer/members payload beside the daemon's load,
// which probes use for two checks a URL alone cannot make: a member
// whose probe answers with our own ID is this daemon itself under an
// unadvertised URL (gossip echoes a non-advertising seed's URL back to
// it) — it is dropped and blacklisted so a daemon never leases sweep
// work to itself — and a member whose ID changed between successful
// probes restarted without missing one, so Self is re-announced to the
// fresh process.
//
// # Health and backoff
//
// The probe loop pulls each due member's GET /peer/members every
// ProbeInterval, through the shared sweepd.PeerClient like every call —
// one call per member per cycle, plus one POST /peer/hello per aliveness
// epoch. Any 2xx answer means alive; only a payload that decodes is
// merged. The serving daemon exempts the pull from its rate limits, so
// -peer-rate can never demote a live member.
//
//	alive --(probe fails)--> suspect --(3 consecutive
//	fails)--> down --(probe succeeds)--> alive (readmission)
//
// Alive and suspect members are probed every cycle. Down members wait
// out an exponential backoff first — starting at ProbeInterval, doubling
// per failed probe, capped at the registry's backoffMax, with jitter in [b/2, b] so a
// flapping machine (or a whole cluster restarting in unison) does not
// re-probe in lockstep. A lease failure against an alive peer demotes it
// to suspect at once (shard.Pool reports it via ReportLeaseFailure), so
// a peer that dies mid-sweep is skipped by subsequent jobs without each
// one paying the lease TTL to rediscover the corpse. That demotion does
// not wake the loop: it is a damper, lifted by the next tick's probe.
//
// The lease pool consumes AlivePeers() — a per-job snapshot of the
// alive members only — so membership changes never touch a running
// job, and checkpoint byte-identity across join/leave holds exactly
// as it does for the static peer list.
//
// # Job leases
//
// The lease table is the cluster's only record of who leads what. The
// scheduler writes our own leases (UpdateLease); a peer's arrive only on
// the gossip pull, so an adopter's new lease reaches every member within
// one probe interval. The registry keeps no lease clock of its own: a
// lease lives as long as its owner lists it. Its own leases leave only through the scheduler's
// DropLease; a peer's leave on the next pull from that peer, whose
// payload is authoritative for the leases it owns. A lease whose owner
// is down or gone stays, however stale — it is what adoption feeds on.
package cluster
