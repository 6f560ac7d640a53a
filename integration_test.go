package ncg

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/classic"
	"repro/internal/construction"
	"repro/internal/dynamics"
	"repro/internal/enum"
	"repro/internal/game"
	"repro/internal/gen"
	"repro/internal/ncgio"
	"repro/internal/swap"
)

// TestPipelineSaveReauditLoad runs dynamics, serializes the equilibrium,
// reloads it, and re-audits — the full persistence round trip a user
// would run across sessions.
func TestPipelineSaveReauditLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	s := RandomState(25, rng)
	cfg := DefaultConfig(MaxNCG, 2, 3)
	res := Run(s, cfg)
	if res.Status != Converged {
		t.Fatalf("status=%v", res.Status)
	}
	var buf bytes.Buffer
	if err := SaveState(&buf, res.Final); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != res.Final.Fingerprint() {
		t.Fatal("round trip changed the equilibrium")
	}
	if !IsLKE(loaded, cfg) {
		t.Fatal("reloaded equilibrium fails the audit")
	}
}

// TestAllGeneratorFamiliesReachEquilibrium runs the dynamics once on
// every starting family the library ships.
func TestAllGeneratorFamiliesReachEquilibrium(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	pa := gen.PreferentialAttachmentTree(20, rng)
	reg, ok := gen.RandomRegular(20, 3, rng, 100)
	if !ok {
		t.Fatal("no regular graph")
	}
	er, err := gen.GNPConnected(20, 0.2, rng, 200)
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]*game.State{
		"uniform tree": game.FromGraphRandomOwners(gen.RandomTree(20, rng), rng),
		"pa tree":      game.FromGraphRandomOwners(pa, rng),
		"3-regular":    game.FromGraphRandomOwners(reg, rng),
		"er":           game.FromGraphRandomOwners(er, rng),
		"caterpillar":  game.FromGraphRandomOwners(gen.Caterpillar(5, 3), rng),
		"hypercube":    game.FromGraphRandomOwners(gen.Hypercube(4), rng),
		"bipartite":    game.FromGraphRandomOwners(gen.CompleteBipartite(4, 5), rng),
	}
	for name, s := range families {
		cfg := dynamics.DefaultConfig(game.Max, 2, 3)
		res := dynamics.Run(s, cfg)
		if res.Status == dynamics.RoundLimit {
			t.Errorf("%s: hit the round limit", name)
			continue
		}
		if err := res.Final.Validate(); err != nil {
			t.Errorf("%s: corrupted state: %v", name, err)
		}
		if res.Status == dynamics.Converged && !dynamics.IsLKE(res.Final, cfg) {
			t.Errorf("%s: converged but not an LKE", name)
		}
	}
}

// TestLKEvsNEContainmentEndToEnd cross-checks three independent
// implementations: the enumeration (ground truth on tiny games), the
// locality responder, and the classical responder.
func TestLKEvsNEContainmentEndToEnd(t *testing.T) {
	res, err := enum.Enumerate(3, game.Max, 1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.NE {
		s := p.Apply()
		if !classic.IsNE(s, game.Max, 1.5) {
			t.Fatalf("enum NE %v rejected by classic.IsNE", p)
		}
		cfg := dynamics.DefaultConfig(game.Max, 1.5, 1)
		if !dynamics.IsLKE(s, cfg) {
			t.Fatalf("enum NE %v rejected as LKE at k=1", p)
		}
	}
	for _, p := range res.LKE {
		s := p.Apply()
		cfg := dynamics.DefaultConfig(game.Max, 1.5, 1)
		if !dynamics.IsLKE(s, cfg) {
			t.Fatalf("enum LKE %v rejected by the dynamics audit", p)
		}
	}
}

// TestTorusFullStack exercises construction → analysis → swap stability
// → dynamics escape under full knowledge, in one flow.
func TestTorusFullStack(t *testing.T) {
	tor, err := construction.BuildTorus(construction.TorusParams{D: 2, L: 2, Delta: []int{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := dynamics.DefaultConfig(game.Max, 2, 4)
	rep := analysis.Analyze(tor.State, cfg)
	if !rep.IsEquilibrium() {
		t.Fatalf("torus analysis: %d deviators", rep.Deviators)
	}
	if !swap.IsSwapStable(tor.State, 4, swap.MaxEcc) {
		t.Fatal("torus not swap-stable")
	}
	// Under full knowledge the torus is NOT stable and the dynamics must
	// escape to something strictly better.
	before := game.SocialCost(tor.State, game.Max, 2)
	full := dynamics.DefaultConfig(game.Max, 2, 1000)
	res := dynamics.Run(tor.State, full)
	after := game.SocialCost(res.Final, game.Max, 2)
	if after >= before {
		t.Fatalf("full knowledge did not improve the torus: %v -> %v", before, after)
	}
}

// TestQualityNeverBelowOne sweeps a mixed grid and asserts the PoA-ratio
// invariant across all equilibria and families.
func TestQualityNeverBelowOne(t *testing.T) {
	cells := dynamics.Grid([]float64{0.5, 2, 8}, []int{2, 4, 1000}, 2)
	factory := func(c dynamics.Cell, rng *rand.Rand) *game.State {
		return game.FromGraphRandomOwners(gen.RandomTree(18, rng), rng)
	}
	for _, r := range dynamics.Sweep(cells, dynamics.DefaultConfig(game.Max, 0, 0), factory, 7) {
		if r.Result.FinalStats.Quality < 1-1e-9 {
			t.Fatalf("cell %+v: quality %v < 1", r.Cell, r.Result.FinalStats.Quality)
		}
	}
}

// TestRunRecordPipeline serializes run outcomes as the checkpoint's JSONL
// lines and decodes them back, final profile included.
func TestRunRecordPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	var buf bytes.Buffer
	var want []dynamics.CellResult
	for seed := 0; seed < 3; seed++ {
		s := RandomState(15, rng)
		res := Run(s, DefaultConfig(MaxNCG, 2, 3))
		rec := dynamics.CellResult{Cell: dynamics.Cell{Alpha: 2, K: 3, Seed: int64(seed)}, Result: res}
		line, err := ncgio.MarshalCellResult(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
		want = append(want, rec)
	}
	recs, clean := ncgio.DecodePrefix(buf.Bytes())
	if len(recs) != 3 || clean != buf.Len() {
		t.Fatalf("records=%d, %d of %d bytes consumed", len(recs), clean, buf.Len())
	}
	for i, rec := range recs {
		if rec.Cell != want[i].Cell || rec.Result.Status != want[i].Result.Status ||
			rec.Result.Rounds != want[i].Result.Rounds || rec.Result.FinalStats != want[i].Result.FinalStats {
			t.Fatalf("record %d: %+v, want %+v", i, rec, want[i])
		}
		if rec.Result.Final.Fingerprint() != want[i].Result.Final.Fingerprint() {
			t.Fatalf("record %d: embedded profile changed", i)
		}
	}
}
