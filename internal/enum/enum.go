// Package enum exhaustively enumerates strategy profiles of tiny games
// and classifies their equilibria: classical Nash equilibria (NE, full
// knowledge) and Local Knowledge Equilibria (LKE, radius k). It exists to
// machine-check the paper's structural claims on concrete instances —
// "as the set of LKEs is broader than the set of NEs, the PoA in our
// model can only be worse" (§1) — and to validate the PoA machinery
// end-to-end against ground truth.
//
// The profile space is (2^(n-1))^n, so n <= 4 is instant and n = 5 is
// the practical ceiling.
package enum

import (
	"fmt"
	"math"

	"repro/internal/bestresponse"
	"repro/internal/game"
)

// Profile is one strategy profile: Strategies[u] is σ_u as a bitmask over
// players (bit v set ⇔ u buys the edge towards v).
type Profile struct {
	N          int
	Strategies []uint32
}

// Apply materializes the profile as a game state.
func (p Profile) Apply() *game.State {
	s := game.NewState(p.N)
	for u := 0; u < p.N; u++ {
		for v := 0; v < p.N; v++ {
			if v != u && p.Strategies[u]&(1<<v) != 0 {
				s.Buy(u, v)
			}
		}
	}
	return s
}

// Result is the outcome of an enumeration.
type Result struct {
	Variant game.Variant
	Alpha   float64
	K       int
	// Profiles is the total number of profiles visited.
	Profiles int
	// NE / LKE hold the equilibrium profiles found (NE ⊆ LKE must hold).
	NE  []Profile
	LKE []Profile
	// OptCost is the minimum social cost over all profiles (the true
	// social optimum, not the star/clique approximation).
	OptCost float64
	// WorstNECost / WorstLKECost are the costliest equilibrium social
	// costs (math.Inf(-1) when no equilibrium exists).
	WorstNECost  float64
	WorstLKECost float64
}

// PoANE returns the exact full-knowledge Price of Anarchy.
func (r Result) PoANE() float64 { return r.WorstNECost / r.OptCost }

// PoALKE returns the exact local-knowledge Price of Anarchy.
func (r Result) PoALKE() float64 { return r.WorstLKECost / r.OptCost }

// Enumerate visits every strategy profile of an n-player game and
// classifies equilibria. Only connected profiles are considered for the
// social optimum and equilibria (disconnected ones have unbounded cost
// and are never stable for the players cut off).
func Enumerate(n int, variant game.Variant, alpha float64, k int) (Result, error) {
	if n < 2 || n > 5 {
		return Result{}, fmt.Errorf("enum: n=%d out of range [2,5]", n)
	}
	res := Result{
		Variant:      variant,
		Alpha:        alpha,
		K:            k,
		OptCost:      math.Inf(1),
		WorstNECost:  math.Inf(-1),
		WorstLKECost: math.Inf(-1),
	}
	strategies := make([]uint32, n)
	var visit func(u int)
	visit = func(u int) {
		if u == n {
			res.Profiles++
			p := Profile{N: n, Strategies: append([]uint32(nil), strategies...)}
			classify(&res, p)
			return
		}
		// All subsets of V \ {u}.
		full := uint32(1<<n) - 1
		mask := full &^ (1 << u)
		for sub := mask; ; sub = (sub - 1) & mask {
			strategies[u] = sub
			visit(u + 1)
			if sub == 0 {
				break
			}
		}
	}
	visit(0)
	return res, nil
}

func classify(res *Result, p Profile) {
	s := p.Apply()
	if !s.Graph().IsConnected() {
		return
	}
	sc := game.SocialCost(s, res.Variant, res.Alpha)
	if sc < res.OptCost {
		res.OptCost = sc
	}
	if isNE(s, res.Variant, res.Alpha) {
		res.NE = append(res.NE, p)
		if sc > res.WorstNECost {
			res.WorstNECost = sc
		}
	}
	if isLKE(s, res.Variant, res.Alpha, res.K) {
		res.LKE = append(res.LKE, p)
		if sc > res.WorstLKECost {
			res.WorstLKECost = sc
		}
	}
}

// isNE checks classical Nash stability by exhaustive deviation: every
// alternative strategy of every player, evaluated on the full network.
func isNE(s *game.State, variant game.Variant, alpha float64) bool {
	n := s.N()
	for u := 0; u < n; u++ {
		cur := game.PlayerCost(s, variant, alpha, u)
		mask := (uint32(1) << n) - 1
		mask &^= 1 << u
		trial := s.Clone() // differs from s in σ_u only, whatever it last tried
		alt := make([]int, 0, n)
		for sub := mask; ; sub = (sub - 1) & mask {
			alt = alt[:0]
			for v := 0; v < n; v++ {
				if v != u && sub&(1<<v) != 0 {
					alt = append(alt, v)
				}
			}
			trial.SetStrategy(u, alt)
			if game.PlayerCost(trial, variant, alpha, u) < cur-1e-9 {
				return false
			}
			if sub == 0 {
				break
			}
		}
	}
	return true
}

// isLKE checks local-knowledge stability with the paper's worst-case
// rules: the exact MDS-based responder for MAXNCG (Prop. 2.1) and the
// exhaustive Δ-search for SUMNCG (Prop. 2.2).
func isLKE(s *game.State, variant game.Variant, alpha float64, k int) bool {
	for u := 0; u < s.N(); u++ {
		switch variant {
		case game.Max:
			if bestresponse.MaxBestResponse(s, u, k, alpha).Improving {
				return false
			}
		case game.Sum:
			r := bestresponse.SumBestResponseExhaustive(s, u, k, alpha, 8)
			if r.Feasible && r.Improving {
				return false
			}
		}
	}
	return true
}

// ContainsProfile reports whether list contains a profile with identical
// strategies.
func ContainsProfile(list []Profile, p Profile) bool {
	for _, q := range list {
		if q.N != p.N {
			continue
		}
		same := true
		for i := range q.Strategies {
			if q.Strategies[i] != p.Strategies[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}
