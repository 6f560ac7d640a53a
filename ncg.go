// Package ncg is the public API of the locality-based network creation
// games library — a from-scratch Go reproduction of Bilò, Gualà, Leucci,
// and Proietti, "Locality-based Network Creation Games" (SPAA 2014 / ACM
// TOPC 2016).
//
// The library models n selfish players building a network: each player
// buys incident edges at price α and pays a usage cost — her eccentricity
// (MAXNCG) or the sum of her distances (SUMNCG). Under the locality model
// every player sees only her k-neighborhood, and stability is captured by
// the Local Knowledge Equilibrium (LKE): no player has a move that
// improves her cost in the worst case over all networks consistent with
// her view.
//
// Quick start:
//
//	rng := rand.New(rand.NewSource(1))
//	s := ncg.FromGraphRandomOwners(ncg.RandomTree(50, rng), rng)
//	cfg := ncg.DefaultConfig(ncg.MaxNCG, 2 /* α */, 3 /* k */)
//	res := ncg.Run(s, cfg)
//	fmt.Println(res.Status, res.FinalStats.Quality)
//
// The facade re-exports the core types; the full machinery (constructions,
// bounds, experiment drivers) lives in the internal packages and is
// exercised through cmd/ tools and the benchmark harness.
package ncg

import (
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/bestresponse"
	"repro/internal/bounds"
	"repro/internal/classic"
	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hardness"
	"repro/internal/ncgio"
	"repro/internal/view"
)

// Core graph and game types.
type (
	// Graph is an undirected simple graph on vertices 0..n-1.
	Graph = graph.Graph
	// State is a strategy profile plus its induced network.
	State = game.State
	// Variant selects MAXNCG or SUMNCG.
	Variant = game.Variant
	// View is a player's k-neighborhood.
	View = view.View
	// Response is a best-response computation outcome.
	Response = bestresponse.Response
	// Config parameterizes a dynamics run.
	Config = dynamics.Config
	// Result is a dynamics outcome.
	Result = dynamics.Result
	// Status describes how a dynamics run ended.
	Status = dynamics.Status
	// Cell is one (α, k, seed) point of an experiment sweep.
	Cell = dynamics.Cell
	// CellResult pairs a cell with its outcome.
	CellResult = dynamics.CellResult
	// Factory builds a starting state for a sweep cell.
	Factory = dynamics.Factory
)

// Game variants.
const (
	// MaxNCG: player cost = α·|σ_u| + eccentricity (Eq. 2).
	MaxNCG = game.Max
	// SumNCG: player cost = α·|σ_u| + Σ distances (Eq. 1).
	SumNCG = game.Sum
)

// Dynamics statuses.
const (
	Converged  = dynamics.Converged
	Cycled     = dynamics.Cycled
	RoundLimit = dynamics.RoundLimit
)

// Graph constructors.
var (
	// NewGraph returns an empty graph on n vertices.
	NewGraph = graph.New
	// Path, Cycle, Star, Complete, Grid, Torus are deterministic families.
	Path     = gen.Path
	CycleG   = gen.Cycle
	Star     = gen.Star
	Complete = gen.Complete
	Grid     = gen.Grid
	Torus    = gen.Torus
	// RandomTree samples a uniform labelled tree (Prüfer decoding).
	RandomTree = gen.RandomTree
	// GNP and GNPConnected sample Erdős–Rényi graphs.
	GNP          = gen.GNP
	GNPConnected = gen.GNPConnected
)

// State constructors.
var (
	// NewState returns an empty profile on n players.
	NewState = game.NewState
	// FromGraphRandomOwners assigns each edge to a fair-coin endpoint.
	FromGraphRandomOwners = game.FromGraphRandomOwners
	// FromGraphLowOwners assigns each edge to its lower-id endpoint.
	FromGraphLowOwners = game.FromGraphLowOwners
)

// Costs and social objectives.
var (
	PlayerCost        = game.PlayerCost
	SocialCost        = game.SocialCost
	OptimumSocialCost = game.OptimumSocialCost
	Quality           = game.Quality
	Unfairness        = game.Unfairness
)

// Locality machinery.
var (
	// ExtractView returns the k-neighborhood view of a player.
	ExtractView = view.Extract
	// MaxBestResponse is the exact MAXNCG best response (§5.3 reduction).
	MaxBestResponse = bestresponse.MaxBestResponse
	// SumDelta evaluates the worst-case SUMNCG cost change (Prop. 2.2),
	// summed over the whole view; +Inf when a frontier vertex leaves it.
	SumDelta = bestresponse.SumDelta
)

// Dynamics.
var (
	// Run executes round-robin best-response dynamics (§5.1).
	Run = dynamics.Run
	// RunContext is Run with cancellation, checked between rounds.
	RunContext = dynamics.RunContext
	// DefaultConfig mirrors the paper's setup for a variant.
	DefaultConfig = dynamics.DefaultConfig
	// IsLKE audits a state for stability under the configured responder.
	IsLKE = dynamics.IsLKE
	// SweepGrid expands α×k×seed grids; Sweep runs them in parallel.
	SweepGrid = dynamics.Grid
	Sweep     = dynamics.Sweep
	// SweepContext is Sweep with cancellation, resume (skip already-known
	// cells), and in-order result streaming — the engine under the
	// ncg-server sweep daemon (internal/sweepd).
	SweepContext = dynamics.SweepContext
)

// SweepOptions tunes SweepContext (worker count, reuse hook, streaming).
type SweepOptions = dynamics.SweepOptions

// Theory (PoA bounds, Figures 3–4).
var (
	MaxPoALowerBound = bounds.MaxLowerBound
	MaxPoAUpperBound = bounds.MaxUpperBound
	SumPoALowerBound = bounds.SumLowerBound
	FullKnowledgeMax = bounds.FullKnowledgeMax
	FullKnowledgeSum = bounds.FullKnowledgeSum
)

// RandomState builds a random-tree starting state in one call — the most
// common setup in the paper's experiments.
func RandomState(n int, rng *rand.Rand) *State {
	return FromGraphRandomOwners(RandomTree(n, rng), rng)
}

// Classical full-knowledge baselines (the games the paper compares to).
var (
	// ClassicBestResponse is the full-knowledge exact best response.
	ClassicBestResponse = classic.BestResponse
	// ClassicIsNE audits classical Nash stability.
	ClassicIsNE = classic.IsNE
	// StarIsNEMax / StarIsNESum are the canonical stability thresholds.
	StarIsNEMax = classic.StarIsNEMax
	StarIsNESum = classic.StarIsNESum
)

// Analysis and persistence.
var (
	// Analyze builds a structural equilibrium report.
	Analyze = analysis.Analyze
	// SaveState / LoadState serialize strategy profiles as JSON.
	SaveState = ncgio.EncodeState
	LoadState = ncgio.DecodeState
)

// AnalysisReport is the structural snapshot returned by Analyze.
type AnalysisReport = analysis.Report

// DominationNumber computes γ(g) through the §2 NP-hardness reduction: a
// joining player's best response buys edges to a minimum dominating set.
func DominationNumber(g *Graph, k int) (int, error) {
	return hardness.DominationNumberViaBestResponse(g, k)
}
