// Package store is the durable plane of sweepd: the files a job and its
// replicas live in, kept apart from job semantics.
//
// Two kinds of artifact live here:
//
//   - FS holds the primary copies: one directory per job under the store
//     root, with the normalized spec (spec.json), the lifecycle record
//     (meta.json), the streaming results checkpoint (results.jsonl, one
//     canonical ncgio cell line per result in canonical cell order) and,
//     for trajectory specs, the per-round sidecar (trajectory.jsonl).
//     Specs and metas commit atomically (temp file + rename); the two
//     JSONL files are framed by ncgio.Lines, and their owner cuts a torn
//     tail, and any disagreement between them, before it resumes.
//     Everything a restarted daemon needs to resume is in the job directory.
//
//   - ReplicaSet holds replicated copies of other members' finished
//     jobs: immutable (spec, checkpoint, sidecar) snapshots received
//     over POST /peer/replicas/{id}, one directory per job under
//     <root>, committed atomically as a whole (temp dir + rename) so a
//     half-received replica is never served. The manifest carries the
//     job identity (content address + kernel hash), the pusher's lease
//     generation (the zombie-leader guard), and the receiver's storage
//     timestamp (the GC clock); a replica is read only under an ID
//     that is a content address. Replicas make a finished job's results
//     survive its leader's disk and let any member serve terminal reads.
//
// The package is deliberately bytes-level: specs pass through as raw
// JSON (json.RawMessage in manifests), so store does not depend on the
// sweepd spec type; sweepd.Store embeds FS and adds the two spec-typed
// operations (CreateJob, LoadSpec) without an import cycle.
package store
