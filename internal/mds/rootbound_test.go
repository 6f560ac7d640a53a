package mds

import (
	"math/rand"
	"testing"
)

// TestRootBoundExitMatchesRetainedCore pins the early return of Solve: the
// root bounds refuse a solve before the warm start exactly when the
// retained core (reference_test.go) ran its warm start, expanded the root
// and stopped there empty-handed. It also pins what every finished solve
// certifies: the optimum's size after a success, the cap after a refusal.
func TestRootBoundExitMatchesRetainedCore(t *testing.T) {
	rng := rand.New(rand.NewSource(20261001))
	var s Solver
	early, late := 0, 0
	for i := 0; i < 600; i++ {
		n := 1 + rng.Intn(70)
		in := randomInstance(n, rng)
		for _, limit := range []int{1, 2, 3, (n + 3) / 4, n + 1} {
			want, wantOK, wantNodes := refSolve(in, limit)
			s.reset(in.n, in.slab(), in.forced)
			fired := first(s.uncov) != -1 && s.lowerBound(s.size, limit) >= limit
			if atRoot := !wantOK && wantNodes == 1; fired != atRoot {
				t.Fatalf("n=%d forced=%v limit=%d: root bounds refuse: %v; retained core: ok=%v after %d nodes",
					n, in.forced, limit, fired, wantOK, wantNodes)
			}
			got, ok := s.Solve(in.n, in.slab(), in.forced, limit)
			if !sameSet(got, want) || ok != wantOK || s.Nodes() != wantNodes {
				t.Fatalf("n=%d forced=%v limit=%d: got %v %v after %d nodes, retained core %v %v after %d",
					n, in.forced, limit, got, ok, s.Nodes(), want, wantOK, wantNodes)
			}
			if proved := s.Proved(); ok && proved != len(got) || !ok && proved != limit {
				t.Fatalf("n=%d forced=%v limit=%d: solve returned %v %v and certifies %d",
					n, in.forced, limit, got, ok, proved)
			}
			switch {
			case fired:
				early++
			case !ok:
				late++
			}
		}
	}
	if early == 0 || late == 0 {
		t.Fatalf("%d refusals at the root bounds, %d by search; want both", early, late)
	}
}

// TestExhaustedSolveProvesNothing runs the search out of nodeBudget: the
// answer stays the retained core's (cut off at the same node), but it is
// no longer certified — Proved reports 0, so the best-response scan, which
// raises its carried bound by Proved alone, learns nothing from it. The
// same solves given room certify their optimum or their cap.
func TestExhaustedSolveProvesNothing(t *testing.T) {
	defer func(b int) { nodeBudget = b }(nodeBudget)
	room := nodeBudget
	rng := rand.New(rand.NewSource(5))
	var s Solver
	withSet, refused := 0, 0
	for i := 0; i < 200; i++ {
		n := 20 + rng.Intn(50)
		in := randomInstance(n, rng)
		for _, limit := range []int{3, (n + 3) / 4, n + 1} {
			nodeBudget = room
			opt, optOK := s.Solve(in.n, in.slab(), in.forced, limit)
			if s.Nodes() < 8 {
				continue // too easy to cut short
			}
			if proved := s.Proved(); optOK && proved != len(opt) || !optOK && proved != limit {
				t.Fatalf("n=%d limit=%d: uncut solve returned %v %v and certifies %d", n, limit, opt, optOK, proved)
			}
			if s.Exhausted() {
				t.Fatalf("n=%d limit=%d: a solve of %d nodes reports its budget of %d exhausted", n, limit, s.Nodes(), room)
			}
			nodeBudget = 4
			want, wantOK, wantNodes := refSolve(in, limit)
			got, ok := s.Solve(in.n, in.slab(), in.forced, limit)
			if !sameSet(got, want) || ok != wantOK || s.Nodes() != wantNodes || wantNodes != nodeBudget {
				t.Fatalf("n=%d limit=%d: cut short, got %v %v after %d nodes, retained core %v %v after %d",
					n, limit, got, ok, s.Nodes(), want, wantOK, wantNodes)
			}
			if s.Proved() != 0 || !s.Exhausted() {
				t.Fatalf("n=%d limit=%d: a search cut off after %d nodes certifies %d, exhausted %v", n, limit, s.Nodes(), s.Proved(), s.Exhausted())
			}
			if ok {
				withSet++
			} else {
				refused++
			}
		}
	}
	if withSet == 0 || refused == 0 {
		t.Fatalf("%d cut-off solves kept a warm-start set, %d refused; want both", withSet, refused)
	}
}
