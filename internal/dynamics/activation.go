package dynamics

import (
	"repro/internal/game"
	"repro/internal/graph"
)

// dirtySet tracks the per-player clean/dirty bits of the event-driven
// engine. A player is clean when her last evaluated response was
// non-improving AND no arc incident to a vertex within distance ≤ k of
// her changed since: her responder input is unchanged, so re-evaluating
// would reproduce the same non-improving answer.
//
// apply marks the over-approximated affected set of a move: a bounded
// multi-source BFS from the mover and every changed arc target, in BOTH
// the pre- and post-move graph (an arc removal shrinks balls — players
// who saw the old arc are reachable in the pre-graph; an addition grows
// them — reachable in the post-graph). Everything starts dirty, so the
// first round evaluates everyone.
type dirtySet struct {
	k       int
	dirty   []bool
	scratch *graph.Scratch
	srcs    []int32
	diff    []int32
}

// newDirtySet builds the activation tracker for a run of n players at
// view radius k.
func newDirtySet(n, k int) *dirtySet {
	d := &dirtySet{k: k, dirty: make([]bool, n), scratch: graph.GetScratch(n)}
	for i := range d.dirty {
		d.dirty[i] = true
	}
	return d
}

// clean reports whether u can be skipped this activation.
func (d *dirtySet) clean(u int) bool { return !d.dirty[u] }

// settle records a non-improving evaluation: u stays clean until a move
// touches her neighborhood.
func (d *dirtySet) settle(u int) { d.dirty[u] = false }

// apply performs u's move and dirties every possibly-affected player.
func (d *dirtySet) apply(s *game.State, u int, strategy []int) {
	d.diff = s.StrategyDiff(u, strategy, d.diff[:0])
	d.srcs = append(d.srcs[:0], int32(u))
	d.srcs = append(d.srcs, d.diff...)
	d.mark(s.Graph())
	s.SetStrategy(u, strategy)
	d.mark(s.Graph())
}

// mark dirties everyone within distance k of the staged sources.
func (d *dirtySet) mark(g *graph.Graph) {
	for _, v := range g.MultiBFSWithinScratch(d.srcs, d.k, d.scratch) {
		d.dirty[v] = true
	}
}

// release returns the pooled scratch.
func (d *dirtySet) release() { graph.PutScratch(d.scratch) }
