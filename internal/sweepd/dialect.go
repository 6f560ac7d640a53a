package sweepd

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dynamics"
	"repro/internal/game"
)

// This file is the dialect seam: every workload-specific decision between
// the JSON spec and the engine lives in one of two registries, keyed by
// the spec's `dialect` and `graph` fields. A dialect owns the move rule
// (the responder constructor Spec.Config hands the engine); a graph
// family owns the starting-network generator (the dynamics.Factory) plus
// normalization and validation of its own parameters. Everything
// downstream — the result cache, shard leases, replication, summaries,
// trajectories — only ever consumes Spec through
// ID/KernelHash/Cells/Config/Factory, so a new workload is exactly one
// registry entry: the serving layers handle it unmodified.
//
// Hash discipline: a registry entry's normalize MUST zero every field
// that does not apply to it (and new Spec fields must be `omitempty` and
// zero-valued for all pre-existing specs), so specs that mean the same
// job keep byte-identical JSON — and therefore byte-identical ID() and
// KernelHash() — across refactors. TestSpecGoldenHashes pins this.

// DialectBestResponse is the default dialect's canonical name. It
// normalizes to the empty string so legacy specs (which had no dialect
// field) hash identically.
const DialectBestResponse = "best-response"

// dialects maps Spec.Dialect (post-Normalize) to its move rule: the
// dynamics constructor Spec.Config resolves once per worker.
var dialects = map[string]func(game.Variant) dynamics.Responder{
	// Best-response dynamics (§5.1): exact MAXNCG responder, exhaustive-
	// then-greedy SUMNCG responder. The legacy — and default — workload.
	"": func(v game.Variant) dynamics.Responder { return dynamics.DefaultConfig(v, 0, 0).NewResponder() },
	// Swap-only games (Alon et al. via internal/swap): re-point one owned
	// edge, no purchases or deletions. α is part of the grid for cache
	// addressing and statistics but does not influence moves (the edge
	// count is invariant).
	"swap": dynamics.SwapResponder,
	// Large-neighborhood best response à la Sokol et al.: shift/exchange
	// best-improvement descent inside the view, a compound deviation
	// explored heuristically (bestresponse/large.go).
	"large-neighborhood": dynamics.NewLargeNeighborhoodResponder,
}

// graphFamily is one starting-network family: parameter normalization
// (zero what does not apply — the hash discipline), parameter validation,
// and the state factory.
type graphFamily struct {
	normalize func(sp *Spec)
	validate  func(sp Spec) error
	factory   func(sp Spec) dynamics.Factory
}

// graphFamilies maps Spec.Graph (post-Normalize) to its implementation.
var graphFamilies = map[string]graphFamily{
	// Uniform random trees (Prüfer), the paper's standard setup.
	"tree": {
		normalize: func(sp *Spec) { sp.P = 0; sp.Q = 0 },
		factory:   func(sp Spec) dynamics.Factory { return dynamics.TreeFactory(sp.N) },
	},
	// Connected Erdős–Rényi G(n,p).
	"gnp": {
		normalize: func(sp *Spec) { sp.Q = 0 },
		validate: func(sp Spec) error {
			if sp.P <= 0 || sp.P >= 1 {
				return fmt.Errorf("sweepd: gnp needs 0 < p < 1, got %g", sp.P)
			}
			// Below the ln(n)/n connectivity threshold G(n,p) is almost
			// never connected, so the factory would quietly substitute trees
			// for essentially every cell (it only falls back on rare retry
			// exhaustion). Reject such specs instead of mislabeling results.
			if minP := math.Log(float64(sp.N)) / float64(sp.N); sp.P < minP {
				return fmt.Errorf("sweepd: gnp p=%g is below the connectivity threshold ln(n)/n ≈ %.4f for n=%d; graphs would rarely connect", sp.P, minP, sp.N)
			}
			return nil
		},
		factory: func(sp Spec) dynamics.Factory { return dynamics.ERFactory(sp.N, sp.P) },
	},
	// Near-square grids with each edge deleted with probability p,
	// resampled until connected (gen.RandomConnectedGrid, the
	// goblin-adventures family — SNIPPETS §1).
	"grid-delete": {
		normalize: func(sp *Spec) { sp.Q = 0 },
		validate: func(sp Spec) error {
			if sp.P < 0 || sp.P >= 1 {
				return fmt.Errorf("sweepd: grid-delete needs deletion probability 0 ≤ p < 1, got %g", sp.P)
			}
			// The grid's edge surplus over a spanning tree is about n, and
			// deletion removes about 2pn edges, so past p = 0.5 survivors
			// are almost never connected — the factory would quietly serve
			// undeleted grids. Same rationale as the gnp threshold.
			if sp.P >= 0.5 {
				return fmt.Errorf("sweepd: grid-delete p=%g would rarely leave a connected grid; need p < 0.5", sp.P)
			}
			return nil
		},
		factory: func(sp Spec) dynamics.Factory { return dynamics.GridDeleteFactory(sp.N, sp.P) },
	},
	// Preferential-attachment trees (Barabási–Albert, m = 1).
	"pa-tree": {
		normalize: func(sp *Spec) { sp.P = 0; sp.Q = 0 },
		factory:   func(sp Spec) dynamics.Factory { return dynamics.PATreeFactory(sp.N) },
	},
	// Random q-regular graphs (pairing model), resampled until connected.
	"random-regular": {
		normalize: func(sp *Spec) { sp.P = 0 },
		validate: func(sp Spec) error {
			if sp.Q < 3 || sp.Q >= sp.N {
				// q ≤ 2 is a disjoint union of paths/cycles with no
				// connectivity margin; q ≥ 3 is connected with high
				// probability, so the resampling loop terminates fast.
				return fmt.Errorf("sweepd: random-regular needs 3 ≤ q < n, got q=%d n=%d", sp.Q, sp.N)
			}
			if sp.N*sp.Q%2 != 0 {
				return fmt.Errorf("sweepd: random-regular needs n·q even, got n=%d q=%d", sp.N, sp.Q)
			}
			return nil
		},
		factory: func(sp Spec) dynamics.Factory { return dynamics.RandomRegularFactory(sp.N, sp.Q) },
	},
}

// variant maps the spec's variant string to the game enum; Validate has
// already rejected anything but "max"/"sum".
func (sp Spec) variant() game.Variant {
	if sp.Variant == "sum" {
		return game.Sum
	}
	return game.Max
}

// dialectNames lists the registry keys for error messages, with the
// default dialect under its canonical name.
func dialectNames() string {
	names := make([]string, 0, len(dialects))
	for name := range dialects {
		if name == "" {
			name = DialectBestResponse
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// graphNames lists the graph-family registry keys for error messages.
func graphNames() string {
	names := make([]string, 0, len(graphFamilies))
	for name := range graphFamilies {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}
