// Package sweepd turns parameter sweeps into managed jobs: a durable job
// store with streaming JSONL checkpoints (one CellResult per line), a
// content-addressed result cache that dedupes repeated cells across jobs,
// a context-aware worker pool on top of dynamics.SweepContext, and an
// HTTP JSON API (cmd/ncg-server). Because every cell's RNG is derived
// from the job's base seed and the cell coordinates alone, a job killed
// mid-run and resumed from its checkpoint produces byte-identical results
// to an uninterrupted run.
//
// The workload itself is pluggable: a spec names a game dialect (the
// move rule — best-response, swap, large-neighborhood) and a graph
// family (the starting-network generator — tree, gnp, grid-delete,
// pa-tree, random-regular), each resolved through the registries in
// dialect.go. The serving layers are dialect-agnostic by construction:
// they consume the spec only through ID/KernelHash/Cells/Config/Factory,
// so caching, sharding, replication, summaries, and trajectories work
// identically for every dialect.
package sweepd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
)

// Spec declares one sweep job: the game dialect and starting-network
// family, the (α, k, seed) grid, and the dynamics budget. The zero
// values of optional fields are normalized away, so specs that mean the
// same job hash the same.
type Spec struct {
	// Dialect is the move rule: "best-response" (default; normalized to
	// the empty string so legacy specs keep their hashes), "swap"
	// (re-point one owned edge), or "large-neighborhood" (shift/exchange
	// descent). See dialect.go.
	Dialect string `json:"dialect,omitempty"`
	// Variant is "max" or "sum" (default "max").
	Variant string `json:"variant,omitempty"`
	// Kernel is the version of the variant's cell kernel, hashed like any
	// field. Normalize stamps this build's (kernels); another is refused. A
	// stored SUM spec without one is version 0: served, never computed on.
	Kernel int `json:"kernel,omitempty"`
	// Graph is the starting-network family: "tree" (random tree; the
	// default), "gnp" (connected Erdős–Rényi, edge probability P),
	// "grid-delete" (near-square grid, each edge deleted with
	// probability P, resampled until connected), "pa-tree"
	// (preferential-attachment tree), or "random-regular" (connected
	// q-regular, degree Q).
	Graph string `json:"graph,omitempty"`
	// N is the number of players (required, 2 ≤ n ≤ maxPlayers).
	N int `json:"n"`
	// P is the edge probability (Graph "gnp") or the edge deletion
	// probability (Graph "grid-delete"); unused otherwise.
	P float64 `json:"p,omitempty"`
	// Q is the vertex degree, required iff Graph == "random-regular".
	Q int `json:"q,omitempty"`
	// Alphas (each in (0, maxAlpha]) and Ks span the grid; Seeds random
	// starts per (α, k) pair.
	Alphas []float64 `json:"alphas"`
	Ks     []int     `json:"ks"`
	Seeds  int       `json:"seeds"`
	// BaseSeed feeds the per-cell RNG derivation (default 1).
	BaseSeed int64 `json:"base_seed,omitempty"`
	// MaxRounds and CycleCheckAfter bound the dynamics (defaults 100, 25 —
	// the experiment-driver values).
	MaxRounds       int `json:"max_rounds,omitempty"`
	CycleCheckAfter int `json:"cycle_check_after,omitempty"`
	// Trajectories opts into per-round statistics: every cell's
	// RoundStats sequence is appended to a trajectory.jsonl sidecar next
	// to the checkpoint (served at GET /sweeps/{id}/trajectories). The
	// main CellResult codec stays small either way. Collection costs one
	// graph.PowerStats pass per round. Because the cache codec drops PerRound,
	// trajectory jobs bypass the result cache — every cell is computed
	// (locally, or on a peer, whose lease streams each cell's sidecar line
	// before its result line) or resumed, and resume keeps only the cells
	// both files hold canonically, so the sidecar is always the complete
	// grid.
	Trajectories bool `json:"trajectories,omitempty"`
}

// maxJobCells caps a single job's grid so one bad request can't pin the
// server; paper scale (15×12×20 = 3600) fits comfortably.
const maxJobCells = 200_000

// maxPlayers caps n: the start-state factory allocates O(n) maps and a
// full-knowledge responder an n²/8-byte neighbourhood-power slab per level
// (12.5 MB at the cap), so an unbounded n lets one request exhaust memory
// — which the Go runtime treats as fatal, on this member and then on each
// one that adopts the job. 50× the paper's largest instance (n = 200).
const maxPlayers = 10_000

// maxAlpha caps α: per-cell seeding converts α·1e6 to int64, and past
// 9.2e12 the Go spec leaves that conversion implementation-dependent, so
// two architectures would seed the same cell differently.
const maxAlpha = 1e12

// kernels maps a variant to the kernel version this build runs; MAX runs
// 0. SUM's 1 sums SumDelta's worst case over the whole view (0: interior).
var kernels = map[string]int{"sum": 1}

// checkKernel refuses a spec whose kernel version this build does not run.
func (sp Spec) checkKernel() error {
	if want := kernels[sp.Variant]; sp.Kernel != want {
		return fmt.Errorf("sweepd: %v kernel %d is not this build's; it runs kernel %d", sp.variant(), sp.Kernel, want)
	}
	return nil
}

// Normalize fills defaults in place, lets the spec's graph family zero the
// parameters that do not apply to it (the hash discipline: a spec's
// canonical JSON must not carry meaningless fields) and stamps a spec that
// names no kernel with this build's.
func (sp *Spec) Normalize() {
	sp.fillDefaults()
	if sp.Kernel == 0 {
		sp.Kernel = kernels[sp.Variant]
	}
}

// decodeSpec reads a stored or received spec, normalized but with the
// kernel its bytes name: stamping a version-0 spec would move its ID.
func decodeSpec(data []byte) (sp Spec, err error) {
	err = json.Unmarshal(data, &sp)
	sp.fillDefaults()
	return sp, err
}

// fillDefaults is Normalize without the kernel stamp.
func (sp *Spec) fillDefaults() {
	if sp.Dialect == DialectBestResponse {
		sp.Dialect = "" // canonical spelling of the default, hash-compatible with legacy specs
	}
	if sp.Variant == "" {
		sp.Variant = "max"
	}
	if sp.Graph == "" {
		sp.Graph = "tree"
	}
	if f, ok := graphFamilies[sp.Graph]; ok && f.normalize != nil {
		f.normalize(sp)
	}
	if sp.BaseSeed == 0 {
		sp.BaseSeed = 1
	}
	if sp.MaxRounds == 0 {
		sp.MaxRounds = 100
	}
	if sp.CycleCheckAfter == 0 {
		sp.CycleCheckAfter = 25
	}
	// Canonicalize the grids (sorted, deduped) so specs that span the same
	// grid get the same ID regardless of listing order.
	sp.Alphas = dedupFloats(sp.Alphas)
	sp.Ks = dedupInts(sp.Ks)
}

// Validate reports the first problem with a normalized spec. Size, grid
// and budget constraints are common to every workload; a graph family's
// checks on its own parameters are delegated to its registry entry. Every
// way a spec enters a daemon (submit, peer lease, adoption, resume) goes
// through here.
func (sp Spec) Validate() error {
	if _, ok := dialects[sp.Dialect]; !ok {
		return fmt.Errorf("sweepd: unknown dialect %q (valid: %s)", sp.Dialect, dialectNames())
	}
	switch sp.Variant {
	case "max", "sum":
	default:
		return fmt.Errorf("sweepd: unknown variant %q (valid: max sum)", sp.Variant)
	}
	if err := sp.checkKernel(); err != nil && sp.Kernel != 0 { // 0: MAX's, or a stored SUM spec's
		return err
	}
	if sp.N < 2 {
		return fmt.Errorf("sweepd: need n ≥ 2, got %d", sp.N)
	}
	if sp.N > maxPlayers {
		return fmt.Errorf("sweepd: n=%d exceeds the %d-player cap", sp.N, maxPlayers)
	}
	f, ok := graphFamilies[sp.Graph]
	if !ok {
		return fmt.Errorf("sweepd: unknown graph %q (valid: %s)", sp.Graph, graphNames())
	}
	if f.validate != nil {
		if err := f.validate(sp); err != nil {
			return err
		}
	}
	if len(sp.Alphas) == 0 {
		return fmt.Errorf("sweepd: empty alpha grid")
	}
	for _, a := range sp.Alphas {
		if a <= 0 {
			return fmt.Errorf("sweepd: need α > 0, got %g", a)
		}
		if a > maxAlpha {
			return fmt.Errorf("sweepd: α=%g exceeds the %g cap", a, maxAlpha)
		}
	}
	if len(sp.Ks) == 0 {
		return fmt.Errorf("sweepd: empty k grid")
	}
	for _, k := range sp.Ks {
		if k < 1 {
			return fmt.Errorf("sweepd: need k ≥ 1, got %d", k)
		}
	}
	if sp.Seeds < 1 {
		return fmt.Errorf("sweepd: need seeds ≥ 1, got %d", sp.Seeds)
	}
	if sp.MaxRounds < 1 || sp.CycleCheckAfter < 1 {
		return fmt.Errorf("sweepd: need max_rounds ≥ 1 and cycle_check_after ≥ 1")
	}
	// Cap each factor before multiplying so a huge seeds value cannot
	// overflow the product past the cap (and then panic grid expansion).
	if len(sp.Alphas) > maxJobCells || len(sp.Ks) > maxJobCells || sp.Seeds > maxJobCells {
		return fmt.Errorf("sweepd: grid dimension exceeds the %d-cell cap", maxJobCells)
	}
	if cells := int64(len(sp.Alphas)) * int64(len(sp.Ks)) * int64(sp.Seeds); cells > maxJobCells {
		return fmt.Errorf("sweepd: grid has %d cells, cap is %d", cells, maxJobCells)
	}
	return nil
}

// ID is the job's content address: jobs with the same normalized spec are
// the same job, which makes submission idempotent and restart-resumable.
func (sp Spec) ID() string {
	return hash(sp)[:16]
}

// KernelHash identifies everything that determines a single cell's result
// EXCEPT the grid: variant, graph family, size, dynamics budget, and base
// seed. Two jobs whose grids overlap share this hash, so the result cache
// keyed by (KernelHash, cell) dedupes common cells across jobs.
func (sp Spec) KernelHash() string {
	kernel := sp
	kernel.Alphas = nil
	kernel.Ks = nil
	kernel.Seeds = 0
	return hash(kernel)
}

func hash(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic("sweepd: unmarshalable spec: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Cells expands the grid of a normalized spec in canonical (α-major,
// then k, then seed) order, matching dynamics.Grid.
func (sp Spec) Cells() []dynamics.Cell {
	return dynamics.Grid(sp.Alphas, sp.Ks, sp.Seeds)
}

// NumCells is len(Cells()) without the O(grid) expansion — for callers
// that only need to validate offsets (the lease handler runs once per
// lease, and paper-scale grids are six figures of cells).
func (sp Spec) NumCells() int {
	return len(sp.Alphas) * len(sp.Ks) * sp.Seeds
}

// CellAt is cell i of the canonical grid by index arithmetic. The index
// must be validated against NumCells by the caller.
func (sp Spec) CellAt(i int) dynamics.Cell {
	ks, seeds := len(sp.Ks), sp.Seeds
	return dynamics.Cell{
		Alpha: sp.Alphas[i/(ks*seeds)],
		K:     sp.Ks[(i/seeds)%ks],
		Seed:  int64(i % seeds),
	}
}

// CellsRange expands only the [start, end) slice of the canonical grid
// — the lease path serves ranges far smaller than the grid, and must
// not pay O(grid) per lease. Offsets must be validated against NumCells
// by the caller.
func (sp Spec) CellsRange(start, end int) []dynamics.Cell {
	out := make([]dynamics.Cell, 0, end-start)
	for i := start; i < end; i++ {
		out = append(out, sp.CellAt(i))
	}
	return out
}

// canonicalPrefix is the canonical-order rule for checkpoint-format bytes
// this process did not append itself, written once. data continues a file
// that holds from records already; canonicalPrefix walks the leading
// records of data (framed by ncgio.Lines) that cellOf decodes, that are
// cell i of the grid at position i, and that occupy exactly their line
// plus one newline — no padding, no blank line before them — and stops
// once the file holds NumCells of them. data[:end] is that prefix, a
// checkpoint a runner can resume from; err, nil exactly when the file then
// holds the whole grid, says why the next record was refused. cellOf is a
// decoder of ncgio's line codec, which refuses any spelling of a record
// but the canonical one.
func (sp Spec) canonicalPrefix(data []byte, from int, cellOf func(line []byte) (dynamics.Cell, error)) (end int, err error) {
	n, total := from, sp.NumCells()
	for line, next := range ncgio.Lines(data) {
		if n == total {
			break
		}
		if next-end != len(line)+1 {
			return end, fmt.Errorf("line %d is padded or follows a blank line", n)
		}
		cell, err := cellOf(line)
		if err != nil {
			return end, fmt.Errorf("line %d: %w", n, err)
		}
		if want := sp.CellAt(n); cell != want {
			return end, fmt.Errorf("line %d is cell %+v, canonical order wants %+v", n, cell, want)
		}
		n, end = n+1, next
	}
	if n < total {
		return end, fmt.Errorf("%d complete records, grid has %d cells", n, total)
	}
	return end, nil
}

// trajectoryCell decodes one sidecar line and returns the cell it records;
// its checkpoint counterpart is ncgio.UnmarshalCell.

func trajectoryCell(line []byte) (dynamics.Cell, error) {
	tr, err := ncgio.UnmarshalTrajectory(line)
	return tr.Cell(), err
}

// Config builds the dynamics configuration for this job: the budgets are
// the spec's, the move rule is the dialect's constructor behind
// NewResponder (so every worker resolves its own instance), and α and k
// are filled per cell by the sweep runner. The spec must have passed
// Validate.
func (sp Spec) Config() dynamics.Config {
	newResponder, ok := dialects[sp.Dialect]
	if !ok {
		panic("sweepd: Config on unvalidated spec with unknown dialect " + sp.Dialect)
	}
	v := sp.variant()
	return dynamics.Config{
		Variant:         v,
		NewResponder:    func() dynamics.Responder { return newResponder(v) },
		MaxRounds:       sp.MaxRounds,
		CycleCheckAfter: sp.CycleCheckAfter,
		CollectPerRound: sp.Trajectories,
	}
}

// Factory builds the starting-state factory for this job — the spec's
// graph family owns the generator (the shared constructors in
// internal/dynamics, so daemon results match the figure drivers' cell
// for cell). The spec must have passed Validate.
func (sp Spec) Factory() dynamics.Factory {
	f, ok := graphFamilies[sp.Graph]
	if !ok {
		panic("sweepd: Factory on unvalidated spec with unknown graph " + sp.Graph)
	}
	return f.factory(sp)
}

func dedupFloats(in []float64) []float64 {
	out := slices.Clone(in)
	sort.Float64s(out)
	return slices.Compact(out)
}

func dedupInts(in []int) []int {
	out := slices.Clone(in)
	sort.Ints(out)
	return slices.Compact(out)
}
