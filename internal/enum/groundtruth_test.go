package enum

import (
	"fmt"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/game"
)

// isLKE asks the same bestresponse responders the engine runs, so on its
// own NE ⊆ LKE is the only statement this package makes that does not lean
// on them. The two tests below close the loop from both sides: against
// isNE's exhaustive deviation on game.PlayerCost where the two notions
// must coincide, and against the engine's own final states.

// TestFullViewLKEEqualsNE: at k = n every view is the whole network and no
// vertex sits on the frontier, so a Local Knowledge Equilibrium is exactly
// a Nash equilibrium. The LKE set — the §5.3 dominating-set reduction for
// MAX, the Prop. 2.2 Δ-search for SUM — must therefore equal the NE set
// found by exhaustive deviation, on every connected profile.
func TestFullViewLKEEqualsNE(t *testing.T) {
	for _, n := range []int{3, 4} {
		for _, variant := range []game.Variant{game.Max, game.Sum} {
			for _, alpha := range []float64{0.5, 1, 1.5, 2, 3} {
				res, err := Enumerate(n, variant, alpha, n)
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("n=%d %v α=%v", n, variant, alpha)
				if len(res.NE) == 0 {
					t.Fatalf("%s: no equilibrium found", tag)
				}
				if len(res.LKE) != len(res.NE) {
					t.Fatalf("%s: %d LKEs at k=n, %d NEs", tag, len(res.LKE), len(res.NE))
				}
				for _, lke := range res.LKE {
					if !ContainsProfile(res.NE, lke) {
						t.Fatalf("%s: LKE %v is not an NE", tag, lke.Strategies)
					}
				}
			}
		}
	}
}

// TestEngineFinalsAreLKEs: whatever connected profile the dynamics start
// from, a run that ends Converged ends in a profile the enumerator also
// classifies as an LKE for the same (variant, α, k).
func TestEngineFinalsAreLKEs(t *testing.T) {
	grid := []struct {
		n      int
		alphas []float64
	}{
		{3, []float64{0.5, 1.5, 3}},
		{4, []float64{2}},
	}
	for _, g := range grid {
		starts := connectedProfiles(g.n)
		for _, variant := range []game.Variant{game.Max, game.Sum} {
			for _, alpha := range g.alphas {
				for _, k := range []int{1, 2, g.n} {
					res, err := Enumerate(g.n, variant, alpha, k)
					if err != nil {
						t.Fatal(err)
					}
					converged := 0
					for _, start := range starts {
						run := dynamics.Run(start.Apply(), dynamics.DefaultConfig(variant, alpha, k))
						if run.Status != dynamics.Converged {
							continue
						}
						converged++
						if final := profileOf(run.Final); !ContainsProfile(res.LKE, final) {
							t.Fatalf("n=%d %v α=%v k=%d: from %v the engine converged to %v, which is not among the %d LKEs",
								g.n, variant, alpha, k, start.Strategies, final.Strategies, len(res.LKE))
						}
					}
					if converged == 0 {
						t.Fatalf("n=%d %v α=%v k=%d: no run converged", g.n, variant, alpha, k)
					}
				}
			}
		}
	}
}

// connectedProfiles lists every strategy profile on n players whose
// network is connected.
func connectedProfiles(n int) []Profile {
	var out []Profile
	strategies := make([]uint32, n)
	var visit func(u int)
	visit = func(u int) {
		if u == n {
			p := Profile{N: n, Strategies: append([]uint32(nil), strategies...)}
			if p.Apply().Graph().IsConnected() {
				out = append(out, p)
			}
			return
		}
		mask := (uint32(1)<<n - 1) &^ (1 << u)
		for sub := mask; ; sub = (sub - 1) & mask {
			strategies[u] = sub
			visit(u + 1)
			if sub == 0 {
				break
			}
		}
	}
	visit(0)
	return out
}

// profileOf inverts Profile.Apply.
func profileOf(s *game.State) Profile {
	p := Profile{N: s.N(), Strategies: make([]uint32, s.N())}
	for u := range p.Strategies {
		for _, v := range s.Strategy(u) {
			p.Strategies[u] |= 1 << v
		}
	}
	return p
}
