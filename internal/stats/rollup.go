package stats

// Rollup accumulates parallel named metric samples per group key — the
// shape of every roll-up in the paper's §5 (mean ± 95% CI per (α, k)
// group) — and summarizes each (key, metric) pair. Keys are reported in
// first-insertion order, so feeding canonically ordered sweep results
// yields canonically ordered groups.
type Rollup[K comparable] struct {
	metrics []string
	keys    []K
	samples map[K][][]float64 // per key: one sample slice per metric
}

// NewRollup declares the metric columns every Add must supply, in order.
func NewRollup[K comparable](metrics ...string) *Rollup[K] {
	return &Rollup[K]{metrics: metrics, samples: make(map[K][][]float64)}
}

// Add appends one observation of every metric for key; values match the
// declared metrics one for one.
func (r *Rollup[K]) Add(key K, values ...float64) {
	if len(values) != len(r.metrics) {
		panic("stats: Rollup.Add arity mismatch")
	}
	cols, ok := r.samples[key]
	if !ok {
		cols = make([][]float64, len(r.metrics))
		r.keys = append(r.keys, key)
	}
	for i, v := range values {
		cols[i] = append(cols[i], v)
	}
	r.samples[key] = cols
}

// Keys lists the group keys in first-insertion order.
func (r *Rollup[K]) Keys() []K { return r.keys }

// Summaries returns the per-metric Summarize roll-up for one key (zero
// summaries for a key never added).
func (r *Rollup[K]) Summaries(key K) map[string]Summary {
	cols := r.samples[key]
	out := make(map[string]Summary, len(r.metrics))
	for i, m := range r.metrics {
		var xs []float64
		if cols != nil {
			xs = cols[i]
		}
		out[m] = Summarize(xs)
	}
	return out
}
