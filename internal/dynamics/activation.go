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
// apply marks the over-approximated affected set of a move: one bounded
// multi-source BFS from the mover and every changed arc target, in the
// pre-move graph. That one search covers the post-move graph too. Every
// changed arc is (u, x) with x in the diff, so both of its endpoints are
// sources. A player within k of a source after the move has a post-move
// shortest path to it; the part of that path up to its first changed
// edge existed before the move and ends at a source, so she was within k
// of a source before it. Everything starts dirty, so the first round
// evaluates everyone. nclean counts the clean players: a search only marks
// players dirty, so a move made while none is clean needs no search.
type dirtySet struct {
	k       int
	dirty   []uint8 // 1 dirty, 0 clean
	nclean  int
	scratch *graph.Scratch
	srcs    []int32
}

// newDirtySet builds the activation tracker for a run of n players at
// view radius k.
func newDirtySet(n, k int) *dirtySet {
	d := &dirtySet{k: k, dirty: make([]uint8, n), scratch: graph.GetScratch(n)}
	for i := range d.dirty {
		d.dirty[i] = 1
	}
	return d
}

// clean reports whether u can be skipped this activation.
func (d *dirtySet) clean(u int) bool { return d.dirty[u] == 0 }

// settle records a non-improving evaluation: u stays clean until a move
// touches her neighborhood.
func (d *dirtySet) settle(u int) {
	d.nclean += int(d.dirty[u])
	d.dirty[u] = 0
}

// apply performs u's move and dirties every possibly-affected player.
func (d *dirtySet) apply(s *game.State, u int, strategy []int) {
	if d.nclean > 0 {
		d.srcs = s.StrategyDiff(u, strategy, append(d.srcs[:0], int32(u)))
		for _, v := range s.Graph().MultiBFSWithinScratch(d.srcs, d.k, d.scratch) {
			d.nclean -= int(1 - d.dirty[v])
			d.dirty[v] = 1
		}
	}
	s.SetStrategy(u, strategy)
}

// release returns the pooled scratch.
func (d *dirtySet) release() { graph.PutScratch(d.scratch) }
