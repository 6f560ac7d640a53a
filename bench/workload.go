package main

import (
	"math/rand"

	"repro/internal/sweepd"
)

const numClients = 2 // closed loop, one per core of the reference box

// jobSpec is one submission: the normalized spec plus the label its
// cells are reported under in the per-dialect rows.
type jobSpec struct {
	spec sweepd.Spec
	kind string
}

// workload is one named traffic mix. job returns the idx-th spec of a
// client's stream, a pure function of (seed, pass, client, idx): the
// daemons see only these specs. A stream repeats every cycle jobs (the
// four dialects, the cache triple); a client stops only between cycles,
// so the job mix never depends on where the deadline fell. tracedJobs
// is how many jobs per client the traced pass and the layer replay
// cover — fixed, not timed, so the counts marked * in the README repeat
// exactly for a seed. An unlisted workload is one BENCHMARK.json does not
// name: the program runs it like the others, the driver does not.
type workload struct {
	name       string
	why        string
	members    int
	cycle      int
	tracedJobs int
	unlisted   bool
	job        func(g gen, client, idx int) jobSpec
}

// workers is the compute the daemons were given: 2 on the lone daemon,
// 1 per cluster member.
func (w *workload) workers() int {
	if w.members == 1 {
		return soloWorkers
	}
	return w.members * memberWorkers
}

// gen carries what every spec is derived from.
type gen struct {
	seed int64
	pass int // separates the passes of one run: same spec ⇒ same job ID ⇒ no work
	tiny bool
}

// baseSeed gives every (seed, pass, client, slot) its own kernel.
func (g gen) baseSeed(client, slot int) int64 {
	return ((g.seed*8+int64(g.pass))*numClients+int64(client))*100000 + int64(slot) + 1
}

// rng is the per-(client, slot) stream behind seeded choices.
func (g gen) rng(client, slot int) *rand.Rand {
	return rand.New(rand.NewSource(g.baseSeed(client, slot)))
}

func norm(sp sweepd.Spec) sweepd.Spec {
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		panic("bench: generated an invalid spec: " + err.Error())
	}
	return sp
}

// pick scales a spec parameter down for the smoke test.
func pick[T any](g gen, full, tiny T) T {
	if g.tiny {
		return tiny
	}
	return full
}

// paperSlice is the §5.1 setup the MAX workloads share: gnp n=100.
func paperSlice(g gen, client, idx int, alphas []float64, ks []int, seeds int) jobSpec {
	return jobSpec{kind: "max", spec: norm(sweepd.Spec{
		Variant: "max", Graph: "gnp", N: pick(g, 100, 24), P: pick(g, 0.06, 0.18),
		Alphas: alphas, Ks: ks, Seeds: pick(g, seeds, 1),
		BaseSeed: g.baseSeed(client, idx),
	})}
}

func localJob(g gen, client, idx int) jobSpec {
	return paperSlice(g, client, idx, []float64{0.5, 1, 2, 3, 5, 8}, []int{2, 3}, 10)
}

func fullJob(g gen, client, idx int) jobSpec {
	return paperSlice(g, client, idx, []float64{0.5, 1, 2, 5}, []int{1000}, 3)
}

// dialectJob cycles the four non-default pipelines. The two SUM jobs of
// a cycle share base seed, family and grid, so exact and heuristic run
// on the same instances.
func dialectJob(g gen, client, idx int) jobSpec {
	cycle := idx / 4
	slot := idx % 4
	switch slot {
	case 0, 1:
		sp := sweepd.Spec{
			// n stays 60 at smoke scale: in a smaller graph the ball has ≤16
			// candidates and the exact SUM responder turns exhaustive (2^16).
			Variant: "sum", Graph: "gnp", N: 60, P: 0.2,
			Alphas: []float64{1, 2, 5}[:pick(g, 3, 1)], Ks: []int{2, 3}, Seeds: pick(g, 6, 1),
			BaseSeed: g.baseSeed(client, 4*cycle),
		}
		if slot == 0 {
			return jobSpec{kind: "sum-exact", spec: norm(sp)}
		}
		sp.Dialect = "large-neighborhood"
		return jobSpec{kind: "sum-large", spec: norm(sp)}
	case 2:
		return jobSpec{kind: "swap", spec: norm(sweepd.Spec{
			Dialect: "swap", Variant: "sum", Graph: "grid-delete", N: pick(g, 100, 16), P: 0.2,
			Alphas: []float64{1, 2}, Ks: []int{3, 1000}, Seeds: pick(g, 4, 1),
			BaseSeed: g.baseSeed(client, 4*cycle+2),
		})}
	default:
		return jobSpec{kind: "max-traj", spec: norm(sweepd.Spec{
			Variant: "max", Graph: "pa-tree", N: pick(g, 100, 16),
			Alphas: []float64{1, 2}, Ks: []int{2, 3, 5}, Seeds: pick(g, 6, 1),
			Trajectories: true,
			BaseSeed:     g.baseSeed(client, 4*cycle+3),
		})}
	}
}

// smallJob emits triples on one kernel: α-sets {a,b}, {c,d,e} and
// {a,b,c,f}. The third job finds all of the first and a third of the
// second in the cache, so exactly 24 of a triple's 72 cells are hits.
func smallJob(g gen, client, idx int) jobSpec {
	triple := idx / 3
	pool := []float64{0.3, 0.5, 1, 1.5, 2, 3, 5, 8}
	g.rng(client, triple).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	alphas := [][]float64{pool[0:2], pool[2:5], {pool[0], pool[1], pool[2], pool[5]}}[idx%3]
	return jobSpec{kind: "max", spec: norm(sweepd.Spec{
		Variant: "max", Graph: "tree", N: 16,
		Alphas: alphas, Ks: []int{2, 1000}, Seeds: 4,
		BaseSeed: g.baseSeed(client, triple),
	})}
}

// warmupSpec is the fixed sweep every set-up pushes through the front
// door before the clock starts. Local views only: full-knowledge cells
// allocate so much that their time follows the box's memory-bandwidth
// weather, which made set-up time drift three times as far as
// throughput.
func warmupSpec(tiny bool) sweepd.Spec {
	g := gen{tiny: tiny}
	return norm(sweepd.Spec{
		Variant: "max", Graph: "gnp", N: pick(g, 60, 16), P: pick(g, 0.1, 0.3),
		Alphas: []float64{0.5, 1, 2, 5}, Ks: []int{2, 3}, Seeds: pick(g, 32, 1),
		BaseSeed: 7,
	})
}

var workloads = []workload{
	{
		name: "solo-local", members: 1, cycle: 1, tracedJobs: 2, job: localJob,
		why: "slice of the paper's grid with local views (k=2,3): per-cell time is the responder's ball extraction and small MDS solves, and dirty-set skipping pays",
	},
	{
		name: "solo-full", members: 1, cycle: 1, tracedJobs: 2, job: fullJob,
		why: "full knowledge (k=1000): the ball is the whole graph, the exact MDS solve dominates and dirty-set skipping degenerates",
	},
	{
		name: "solo-dialects", members: 1, cycle: 4, tracedJobs: 4, job: dialectJob, unlisted: true,
		why: "SUM exact vs large-neighborhood on the same instances, swap, and a trajectories job: the non-MDS responders, stats pass and sidecar",
	},
	{
		name: "serve-small", members: 1, cycle: 3, tracedJobs: 12, job: smallJob,
		why: "tiny jobs, a third of cells cache hits: admission, store create/append/sync, spill writes and the 150ms follow poll, not the engine",
	},
	{
		name: "cluster3", members: 3, cycle: 1, tracedJobs: 2, job: localJob,
		why: "solo-local's cells on 3 members, same CPU: the cost of placement, leases, codec round-trips and replication; reads are replica-served",
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
