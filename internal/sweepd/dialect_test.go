package sweepd

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bestresponse"
	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/ncgio"
	"repro/internal/swap"
)

// dialectSpec is a valid baseline the validation table mutates.
func dialectSpec() Spec {
	return Spec{N: 14, Alphas: []float64{1}, Ks: []int{2}, Seeds: 2,
		MaxRounds: 40, CycleCheckAfter: 40}
}

func TestDialectAndGraphValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string // substring of the expected error, "" = valid
	}{
		{"default-dialect", func(sp *Spec) {}, ""},
		{"explicit-best-response", func(sp *Spec) { sp.Dialect = "best-response" }, ""},
		{"swap", func(sp *Spec) { sp.Dialect = "swap" }, ""},
		{"large-neighborhood", func(sp *Spec) { sp.Dialect = "large-neighborhood" }, ""},
		{"unknown-dialect", func(sp *Spec) { sp.Dialect = "bogus" }, "unknown dialect"},
		{"unknown-graph", func(sp *Spec) { sp.Graph = "hypercube" }, "unknown graph"},
		{"gnp-needs-p", func(sp *Spec) { sp.Graph = "gnp" }, "0 < p < 1"},
		{"gnp-below-threshold", func(sp *Spec) { sp.Graph = "gnp"; sp.P = 0.01 }, "connectivity threshold"},
		{"grid-delete-zero-p", func(sp *Spec) { sp.Graph = "grid-delete" }, ""},
		{"grid-delete-ok", func(sp *Spec) { sp.Graph = "grid-delete"; sp.P = 0.3 }, ""},
		{"grid-delete-negative-p", func(sp *Spec) { sp.Graph = "grid-delete"; sp.P = -0.1 }, "0 ≤ p < 1"},
		{"grid-delete-too-high", func(sp *Spec) { sp.Graph = "grid-delete"; sp.P = 0.6 }, "p < 0.5"},
		{"pa-tree", func(sp *Spec) { sp.Graph = "pa-tree" }, ""},
		{"random-regular-ok", func(sp *Spec) { sp.Graph = "random-regular"; sp.Q = 3 }, ""},
		{"random-regular-missing-q", func(sp *Spec) { sp.Graph = "random-regular" }, "3 ≤ q < n"},
		{"random-regular-low-q", func(sp *Spec) { sp.Graph = "random-regular"; sp.Q = 2 }, "3 ≤ q < n"},
		{"random-regular-huge-q", func(sp *Spec) { sp.Graph = "random-regular"; sp.Q = 14 }, "3 ≤ q < n"},
		{"random-regular-odd-product", func(sp *Spec) { sp.N = 13; sp.Q = 3; sp.Graph = "random-regular" }, "n·q even"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sp := dialectSpec()
			c.mutate(&sp)
			sp.Normalize()
			err := sp.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				// Every valid spec must build its engine pieces.
				if sp.Config().MaxRounds != sp.MaxRounds {
					t.Fatal("Config did not carry the round budget")
				}
				if sp.Factory() == nil {
					t.Fatal("nil factory")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

// TestDialectConfigs pins the one seam between a spec and the engine, for
// every dialect × variant: Config carries the spec's budgets and leaves
// Responder unset (each worker resolves its own), what ResolveResponder
// hands out answers exactly like the constructor the registry names, and
// two resolved responders share no scratch — two goroutines drive one each
// over the same states (CI runs this package under -race) and both must
// reproduce the sequential answers.
func TestDialectConfigs(t *testing.T) {
	const n, k, alpha = 14, 2, 1.0
	var states []*game.State
	for seed := int64(0); seed < 50; seed++ {
		states = append(states, dynamics.CellState(dynamics.ERFactory(n, 0.3), dynamics.Cell{Alpha: alpha, K: k, Seed: seed}, 7))
	}
	respondAll := func(r dynamics.Responder) []bestresponse.Response {
		var out []bestresponse.Response
		for _, s := range states {
			for u := 0; u < n; u++ {
				out = append(out, r(s, u, k, alpha))
			}
		}
		return out
	}
	for name, construct := range dialects {
		for _, variant := range []string{"max", "sum"} {
			sp := Spec{Dialect: name, Variant: variant, N: n, Alphas: []float64{alpha}, Ks: []int{k}, Seeds: 1,
				MaxRounds: 37, CycleCheckAfter: 11, Trajectories: variant == "sum"}
			sp.Normalize()
			if err := sp.Validate(); err != nil {
				t.Fatal(err)
			}
			tag := name + "/" + variant
			cfg := sp.Config()
			if cfg.Variant != sp.variant() || cfg.MaxRounds != 37 || cfg.CycleCheckAfter != 11 || cfg.CollectPerRound != sp.Trajectories {
				t.Fatalf("%s: Config() = %+v does not carry the spec's variant and budgets", tag, cfg)
			}
			if cfg.Responder != nil || cfg.NewResponder == nil {
				t.Fatalf("%s: Config() must name a constructor, not share one responder", tag)
			}
			want := respondAll(construct(sp.variant()))
			if got := respondAll(cfg.ResolveResponder()); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the resolved responder and the registry's constructor disagree", tag)
			}
			var wg sync.WaitGroup
			got := make([][]bestresponse.Response, 2)
			for i := range got {
				r := cfg.ResolveResponder()
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = respondAll(r)
				}()
			}
			wg.Wait()
			for i := range got {
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("%s: concurrent responder %d deviates from the sequential answers", tag, i)
				}
			}
		}
	}
}

// TestNormalizeZeroesForeignParams pins the hash discipline: a graph
// family zeroes the parameters that do not apply to it, so specs that
// mean the same job hash the same, and the canonical JSON of legacy
// specs never grows fields.
func TestNormalizeZeroesForeignParams(t *testing.T) {
	sp := dialectSpec()
	sp.Dialect = "best-response"
	sp.P = 0.4
	sp.Q = 5
	sp.Normalize()
	if sp.Dialect != "" {
		t.Fatalf("best-response should normalize to the empty dialect, got %q", sp.Dialect)
	}
	if sp.P != 0 || sp.Q != 0 {
		t.Fatalf("tree family should zero p and q, got p=%g q=%d", sp.P, sp.Q)
	}
	clean := dialectSpec()
	clean.Normalize()
	if sp.ID() != clean.ID() || sp.KernelHash() != clean.KernelHash() {
		t.Fatal("specs meaning the same job hash differently")
	}

	rr := dialectSpec()
	rr.Graph = "random-regular"
	rr.Q = 4
	rr.P = 0.3
	rr.Normalize()
	if rr.P != 0 || rr.Q != 4 {
		t.Fatalf("random-regular should zero p and keep q, got p=%g q=%d", rr.P, rr.Q)
	}
	gd := dialectSpec()
	gd.Graph = "grid-delete"
	gd.P = 0.2
	gd.Q = 9
	gd.Normalize()
	if gd.P != 0.2 || gd.Q != 0 {
		t.Fatalf("grid-delete should keep p and zero q, got p=%g q=%d", gd.P, gd.Q)
	}
}

// TestDialectsAreDistinctJobs submits the same grid under all three
// dialects to one manager: each is its own content-addressed job with
// its own kernel (no cache cross-talk), and all finish through the
// unmodified serving path.
func TestDialectsAreDistinctJobs(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, NewCache(256), 2)
	defer mgr.Close()

	ids := map[string]bool{}
	kernels := map[string]bool{}
	for _, d := range []string{"best-response", "swap", "large-neighborhood"} {
		sp := dialectSpec()
		sp.Dialect = d
		sp.Normalize()
		if err := sp.Validate(); err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		job, _, err := mgr.Submit(sp)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		waitStatus(t, mgr, job.ID, StatusDone)
		ids[job.ID] = true
		kernels[sp.KernelHash()] = true
	}
	if len(ids) != 3 || len(kernels) != 3 {
		t.Fatalf("dialects must be distinct jobs with distinct kernels, got %d ids, %d kernels", len(ids), len(kernels))
	}
}

func swapObjective(variant string) swap.Objective {
	if variant == "sum" {
		return swap.SumDist
	}
	return swap.MaxEcc
}

// TestSwapDialectMatchesSwapRun is the swap dialect's differential
// guarantee: a daemon-submitted swap sweep is cell-for-cell equal to
// running swap.Run directly over the same seeds — same convergence
// verdict, same round and move counts, same final network. The spec sets
// cycle_check_after = max_rounds so the engine's cycle detector (which
// swap.Run does not have) can never fire, making statuses comparable.
func TestSwapDialectMatchesSwapRun(t *testing.T) {
	for _, variant := range []string{"max", "sum"} {
		t.Run(variant, func(t *testing.T) {
			sp := Spec{
				Dialect: "swap", Variant: variant,
				Graph: "grid-delete", N: 16, P: 0.2,
				Alphas: []float64{1}, Ks: []int{2, 3}, Seeds: 3,
				MaxRounds: 60, CycleCheckAfter: 60,
			}
			sp.Normalize()
			if err := sp.Validate(); err != nil {
				t.Fatal(err)
			}
			store, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			mgr := NewManager(store, NewCache(256), 3)
			defer mgr.Close()
			job, _, err := mgr.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			waitStatus(t, mgr, job.ID, StatusDone)

			results, err := ncgio.ReadCheckpoint(store.ResultsPath(job.ID))
			if err != nil {
				t.Fatal(err)
			}
			cells := sp.Cells()
			if len(results) != len(cells) {
				t.Fatalf("%d result lines for %d cells", len(results), len(cells))
			}
			factory := sp.Factory()
			obj := swapObjective(variant)
			for i, r := range results {
				cell := cells[i]
				if r.Cell != cell {
					t.Fatalf("line %d: cell %+v, want %+v", i, r.Cell, cell)
				}
				s := dynamics.CellState(factory, cell, sp.BaseSeed)
				direct := swap.Run(s, cell.K, obj, sp.MaxRounds)
				if direct.Converged != (r.Result.Status == dynamics.Converged) {
					t.Fatalf("cell %+v: daemon status %v, direct converged=%v", cell, r.Result.Status, direct.Converged)
				}
				if direct.Rounds != r.Result.Rounds {
					t.Fatalf("cell %+v: daemon rounds %d, direct %d", cell, r.Result.Rounds, direct.Rounds)
				}
				if direct.Swaps != r.Result.TotalMoves {
					t.Fatalf("cell %+v: daemon moves %d, direct swaps %d", cell, r.Result.TotalMoves, direct.Swaps)
				}
				if r.Result.Final == nil || s.Fingerprint() != r.Result.Final.Fingerprint() {
					t.Fatalf("cell %+v: final networks differ", cell)
				}
			}
		})
	}
}

// TestLargeNeighborhoodDialectDeterministic replays each daemon cell of
// a large-neighborhood sweep through the engine directly — the dialect
// must be a pure function of (spec, cell) like every other.
func TestLargeNeighborhoodDialectDeterministic(t *testing.T) {
	sp := Spec{
		Dialect: "large-neighborhood", Variant: "sum",
		Graph: "pa-tree", N: 12,
		Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 2,
		MaxRounds: 40, CycleCheckAfter: 10,
	}
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, NewCache(256), 2)
	defer mgr.Close()
	job, _, err := mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr, job.ID, StatusDone)

	results, err := ncgio.ReadCheckpoint(store.ResultsPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	factory := sp.Factory()
	for i, r := range results {
		cell := sp.Cells()[i]
		s := dynamics.CellState(factory, cell, sp.BaseSeed)
		cfg := sp.Config()
		cfg.Alpha, cfg.K = cell.Alpha, cell.K
		direct := dynamics.Run(s, cfg)
		if direct.Status != r.Result.Status || direct.Rounds != r.Result.Rounds ||
			direct.TotalMoves != r.Result.TotalMoves {
			t.Fatalf("cell %+v: direct (%v, %d rounds, %d moves) != daemon (%v, %d, %d)",
				cell, direct.Status, direct.Rounds, direct.TotalMoves,
				r.Result.Status, r.Result.Rounds, r.Result.TotalMoves)
		}
		if r.Result.Final == nil || direct.Final.Fingerprint() != r.Result.Final.Fingerprint() {
			t.Fatalf("cell %+v: final networks differ", cell)
		}
	}
}
