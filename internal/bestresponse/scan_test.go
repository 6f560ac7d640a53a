package bestresponse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/game"
	"repro/internal/gen"
	"repro/internal/mds"
)

// TestMaxBestResponseTinyAlpha is the regression test for the cap
// ⌈(bestCost-h)/α⌉ leaving int's range: below α ≈ 1e-19 the conversion
// went negative, every solve was refused and the exact responder — fast
// path and reference alike — reported no improving move for anyone. Edges
// that cheap are as good as free, so the players who want to move are the
// ones who want to at 1e-12, where nothing overflows.
func TestMaxBestResponseTinyAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := game.FromGraphRandomOwners(gen.RandomTree(40, rng), rng)
	for _, k := range []int{2, 1000} {
		var want []int // the improving players at α = 1e-12
		for _, alpha := range []float64{1e-12, 1e-19, 1e-30, 1e-300, math.SmallestNonzeroFloat64} {
			var improving []int
			for u := 0; u < s.N(); u++ {
				got := MaxBestResponse(s, u, k, alpha)
				checkResponse(t, fmt.Sprintf("MaxBestResponse[u=%d k=%d a=%g]", u, k, alpha),
					got, refMaxBestResponse(s, u, k, alpha))
				if got.Improving {
					improving = append(improving, u)
				}
			}
			if want == nil {
				if want = improving; len(want) == 0 {
					t.Fatalf("k=%d: nobody improves at α=%g; the instance pins nothing", k, alpha)
				}
			}
			if !slices.Equal(improving, want) {
				t.Fatalf("k=%d α=%g: improving players %v, at α=1e-12 %v", k, alpha, improving, want)
			}
		}
	}
}

// TestScanSkipsOnlyFailingLevels re-solves every level the carried lower
// bound made the scan skip, with the neighborhoods, forced set and cap the
// solve would have run under: each must be a refusal, or the skip changed
// an answer. The differential tests already pin the responses; this pins
// the reason they did not move. Each response's counts are its own call's,
// on a reused Evaluator as on a fresh one, and the checks below run on
// their sum.
func TestScanSkipsOnlyFailingLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	var e Evaluator
	var st ScanStats
	skips := 0
	for gi, g := range diffGraphs(rng) {
		s := game.FromGraphRandomOwners(g, rng)
		for _, k := range []int{1, 2, 3, 1000} {
			for _, alpha := range []float64{0, 0.5, 1, 2, 3, 5, 8} {
				for u := 0; u < s.N(); u++ {
					tag := fmt.Sprintf("g=%d u=%d k=%d a=%g", gi, u, k, alpha)
					callSkips := 0
					e.onSkip = func(h, limit int) {
						callSkips++
						skips++
						// The scan builds its powers lazily, so the slab may
						// not hold level h-1 yet: build it from the BFS.
						if set, ok := mds.MinDominatingExtraAtMostBitsets(e.ws.Size()-1, bfsLevel(&e, h-1), e.forced, limit); ok {
							t.Fatalf("%s: skipped h=%d, but %v dominates under its cap %d", tag, h, set, limit)
						}
					}
					r := e.MaxBestResponse(s, u, k, alpha)
					checkResponse(t, "MaxBestResponse["+tag+"]", r, refMaxBestResponse(s, u, k, alpha))
					if r.Scan.Skipped != int64(callSkips) {
						t.Fatalf("%s: stats %+v after %d observed skips", tag, r.Scan, callSkips)
					}
					if fresh := NewEvaluator().MaxBestResponse(s, u, k, alpha).Scan; fresh != r.Scan {
						t.Fatalf("%s: a reused Evaluator counts %+v, a fresh one %+v", tag, r.Scan, fresh)
					}
					st.Add(r.Scan)
				}
			}
		}
	}
	if st.Skipped != int64(skips) {
		t.Fatalf("stats %+v after %d observed skips", st, skips)
	}
	if st.Skipped == 0 || st.RootRefusals == 0 || st.Nodes <= st.RootRefusals {
		t.Fatalf("stats %+v: the instances exercise no skip, no root refusal or no search", st)
	}
	if st.Solves+st.Skipped > st.Levels || st.RootRefusals > st.Solves {
		t.Fatalf("stats %+v are inconsistent", st)
	}
	if st.BudgetExhausted != 0 {
		t.Fatalf("stats %+v: a solve of the differential set ran out of search budget, so its answers are pinned to the budget", st)
	}
	t.Logf("%+v", st)
}

// FuzzMaxBestResponse pins the fast exact responder to the reference on
// states of at most 12 players decoded from the input: byte 0 picks n,
// byte 1 the player, byte 2 the radius, byte 3 the price, then two bits
// per vertex pair — no edge, bought by the lower endpoint, by the higher,
// by both.
func FuzzMaxBestResponse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{11, 0, 4, 5, 0x55, 0x55, 0x55, 0x55, 0x55})
	f.Add([]byte{11, 3, 2, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{8, 1, 1, 0, 0x12, 0x40, 0x09, 0x81, 0x24, 0x02, 0x10})
	f.Add([]byte{9, 7, 3, 2, 0x41, 0x10, 0x04, 0x01, 0x40, 0x10, 0x04, 0x01, 0x40})
	f.Add([]byte{10, 5, 4, 9, 0x01, 0x04, 0x10, 0x40, 0x01, 0x04, 0x10, 0x40, 0x01, 0x04, 0x10, 0x40})
	f.Add([]byte{7, 2, 0, 6, 0x99, 0x66, 0x99, 0x66, 0x99, 0x66})
	// Players with bought-in edges at α >= 1, whose scans meet cap-1 levels
	// the forced set dominates alone and cap-1 levels it cannot.
	f.Add([]byte{0x8, 0x4, 0x5, 0x7, 0x50, 0x0, 0x84, 0x30, 0x20, 0x24, 0x7, 0x53, 0xa1})
	f.Add([]byte{0x7, 0x4, 0x2, 0x8, 0xe0, 0x8, 0x80, 0x53, 0x0, 0x4, 0x8})
	f.Add([]byte{0xa, 0x1, 0x3, 0xc, 0x48, 0x80, 0xc0, 0x9c, 0xc1, 0x2c, 0x2, 0x48, 0x6, 0x1, 0xe0, 0xe0, 0xe1, 0x20})
	ks := []int{0, 1, 2, 3, 1000, math.MaxInt}
	alphas := []float64{0, math.SmallestNonzeroFloat64, 1e-30, 1e-19, 1e-9, 0.3, 0.5, 1, 2, 2.7, 5, 8, 1e6}
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		n := 1 + at(0)%12
		u := at(1) % n
		k := ks[at(2)%len(ks)]
		alpha := alphas[at(3)%len(alphas)]
		s := game.NewState(n)
		bit := 32
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				owners := at(bit/8) >> (bit % 8) & 3
				if owners&1 != 0 {
					s.Buy(a, b)
				}
				if owners&2 != 0 {
					s.Buy(b, a)
				}
				bit += 2
			}
		}
		checkResponse(t, fmt.Sprintf("MaxBestResponse[n=%d u=%d k=%d a=%g %v]", n, u, k, alpha, s.Graph().Edges()),
			MaxBestResponse(s, u, k, alpha), refMaxBestResponse(s, u, k, alpha))
	})
}
