package sweepd

import (
	"encoding/json"
	"testing"
)

// pinned fails unless sp's content addresses are id and kernel.
func pinned(t *testing.T, sp Spec, id, kernel string) {
	t.Helper()
	if err := sp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := sp.ID(); got != id {
		t.Errorf("ID() = %q, pinned value %q", got, id)
	}
	if got := sp.KernelHash(); got != kernel {
		t.Errorf("KernelHash() = %q, pinned value %q", got, kernel)
	}
}

// TestSpecGoldenHashes pins ID()/KernelHash() values computed before the
// dialect refactor for a table of representative legacy specs. A job's ID
// names its directory in the store and its KernelHash keys the result
// cache, so any drift here silently orphans existing job stores and cache
// spills. New spec fields must follow the omitempty discipline (zero value
// for every legacy spec) so these hashes never move. The legacy table is
// kernel version 0, read as a store holds it (decodeSpec, LoadSpec's
// path); under Normalize its MAX specs keep those values, and its SUM
// specs move to the kernel-1 table's.
func TestSpecGoldenHashes(t *testing.T) {
	cases := []struct {
		name   string
		spec   Spec
		id     string
		kernel string
	}{
		{
			name:   "defaults-tree-max",
			spec:   Spec{N: 12, Alphas: []float64{0.5, 2}, Ks: []int{2, 1000}, Seeds: 2},
			id:     "b91c61a64e3690ac",
			kernel: "542927bb6a79806e0f47d2c5350e2fee8cd85f73c35700166b271a69a6d76328",
		},
		{
			name:   "sum-gnp",
			spec:   Spec{Variant: "sum", Graph: "gnp", N: 30, P: 0.2, Alphas: []float64{1, 2}, Ks: []int{3}, Seeds: 3},
			id:     "fc6541758247d955",
			kernel: "ed2fa39e3a385adff7b08faf99455d706f736717e4ebccaa18314b9d8863d486",
		},
		{
			name: "trajectories-custom-budget",
			spec: Spec{N: 8, Alphas: []float64{0.5, 1, 2}, Ks: []int{1, 2}, Seeds: 4,
				BaseSeed: 7, MaxRounds: 50, CycleCheckAfter: 10, Trajectories: true},
			id:     "acda33a7539334fe",
			kernel: "16da4bb73d6f5c647172c2fa0e96e97539acccaf8054964746f8644a9f0cde82",
		},
		{
			name:   "max-gnp-wide-grid",
			spec:   Spec{Graph: "gnp", N: 64, P: 0.1, Alphas: []float64{0.25, 0.5, 1, 2, 4}, Ks: []int{1, 2, 3}, Seeds: 5},
			id:     "c4e6f93a29a40ecc",
			kernel: "7fcc1a0c85b68c4c4900a64e7b0bf4525d66444e30c769440ceae3d20f3671be",
		},
		{
			name: "sum-tree-long-budget",
			spec: Spec{Variant: "sum", N: 40, Alphas: []float64{3}, Ks: []int{2}, Seeds: 10,
				MaxRounds: 400, CycleCheckAfter: 100},
			id:     "3d9d1a6d3b7269cc",
			kernel: "42e59947a4966a5527484032553d53eaae2755321a6617a65479cf13428b2c34",
		},
	}
	v1 := map[string][2]string{
		"sum-gnp":              {"685c317020d81cca", "0595289ae36731465a3068ce6de6b338a15610de7167f2cacd4654f8ace856b2"},
		"sum-tree-long-budget": {"6d65e1d3cce6e9ef", "cd87f8b465a88860a4efd7b4418728a5f0b0b8e5f936eb15ed7e3f9dee679440"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data, err := json.Marshal(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			stored, err := decodeSpec(data)
			if err != nil {
				t.Fatal(err)
			}
			pinned(t, stored, c.id, c.kernel)

			sp := c.spec
			sp.Normalize()
			if want, ok := v1[c.name]; ok {
				pinned(t, sp, want[0], want[1])
			} else {
				pinned(t, sp, c.id, c.kernel)
			}
		})
	}

	// The explicit default dialect must hash identically to the legacy
	// spelling: "best-response" normalizes to the empty string so legacy
	// job stores and cache spills stay addressable.
	explicit := cases[0].spec
	explicit.Dialect = "best-response"
	explicit.Normalize()
	if got := explicit.ID(); got != cases[0].id {
		t.Errorf("explicit best-response dialect: ID() = %q, want legacy %q", got, cases[0].id)
	}
	if got := explicit.KernelHash(); got != cases[0].kernel {
		t.Errorf("explicit best-response dialect: KernelHash() = %q, want legacy %q", got, cases[0].kernel)
	}
}
