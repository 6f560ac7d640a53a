// Package dynamics implements the paper's simulation machinery (§5.1):
// best-response dynamics with cycle detection, per-round feature
// collection, and a parallel sweep runner for the (α, k, seed)
// experiment grids.
//
// # One engine, three schedules
//
// Run, RunContext, RunScheduledContext, and RunTraced are all thin
// wrappers over one round-loop engine (runEngine): round-robin is the
// schedule the paper uses, the permutation schedules are ablations, and
// the trace variant only adds a move hook. Production runs enter through
// Run and RunContext; the other two doors stay because they are what pins
// the engine to the specification under permuted activation and what pins
// the move log. Schedule, RNG and trace are arguments of those doors and
// not Config fields: Config is copied per cell by every sweep worker, and
// a shared *rand.Rand inside it would be shared state. The engine
// owns cancellation (checked between rounds), cycle detection (disabled
// under RandomEachRound, where a repeated profile is not conclusive),
// and the FinalStats.Moves backfill — every entry point reports
// identically.
//
// # Event-driven activation
//
// The engine is event-driven: it maintains a per-player clean/dirty bit
// and skips clean players without calling the responder. A player is
// clean when her last evaluated response was non-improving AND no arc
// incident to a vertex within distance ≤ k of her has changed since.
// Because a responder's output is a function of the player's k-ball view
// (the induced subgraph on β(u,k)) plus the arcs bought towards her,
// a clean player's response is unchanged by construction — skipping her
// is not an approximation, and results are bit-identical to evaluating
// everyone.
//
// On each applied move the engine diffs the old and new strategy
// (game.State.StrategyDiff), then, before applying it, marks dirty every
// player within one bounded-depth multi-source BFS of the changed arcs'
// endpoints (graph.MultiBFSWithinScratch on pooled scratch) — a
// conservative over-approximation whose correctness never depends on the
// tightness of the radius. The pre-move graph is the only one searched:
// both endpoints of every changed arc are sources, so a post-move path of
// length ≤ k from a player to a source reaches, at or before its first
// added edge, a source along edges that were already there. The post-move
// search would mark a subset of what the pre-move one marked.
// The engine counts its clean players: a move made while none is clean
// needs neither the diff nor the search, which only marks players dirty.
// Early in a run, and under full knowledge, most moves are such moves.
// Full-knowledge responders (k beyond the diameter) degrade gracefully:
// the bounded BFS covers the whole component, reproducing dirty-everyone
// behavior.
//
// That locality contract is a requirement on every Responder, not an
// option: there is no evaluate-everyone mode to fall back to. A custom
// responder that reads state OUTSIDE the k-ball plus the arcs bought
// towards the player will be skipped when it should not be. Every
// responder in this repository is k-local, and each is one constructor in
// responders.go returning a Responder that owns its scratch — the single
// seam through which a move rule reaches the engine.
//
// # Reference implementation and differential testing
//
// reference_test.go retains the naive loop — every player evaluated every
// round — as the executable specification, in the internal/bestresponse
// style: a test file, so the compiler keeps the engine from calling it
// (export_test.go hands it to the external tests that also import ncgio).
// differential_test.go drives both over
// randomized graphs, variants, and all three schedules, asserting
// byte-identical Results (Rounds, TotalMoves, Status, PerRound, final
// fingerprint) — which is exactly what keeps sweep checkpoints
// byte-identical, so sharding, caching, and replication inherit the
// speedup for free. Result.Evaluations (responder calls actually made)
// and Result.Scan (the exact MAX scans those calls ran) are the fields
// allowed to differ: they are how the sub-linear behavior of converging
// cells is observed in benchmarks, and the engine's counts are at most the
// naive loop's.
package dynamics
