package sweepd

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dynamics"
)

func testSpec() Spec {
	return Spec{
		N:      12,
		Alphas: []float64{0.5, 2},
		Ks:     []int{2, 1000},
		Seeds:  2,
	}
}

func TestSpecNormalizeDefaults(t *testing.T) {
	sp := testSpec()
	sp.Normalize()
	if sp.Variant != "max" || sp.Graph != "tree" || sp.BaseSeed != 1 ||
		sp.MaxRounds != 100 || sp.CycleCheckAfter != 25 {
		t.Fatalf("defaults not applied: %+v", sp)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecIDOrderInsensitive(t *testing.T) {
	a := testSpec()
	b := testSpec()
	b.Alphas = []float64{2, 0.5, 2}
	b.Ks = []int{1000, 2}
	a.Normalize()
	b.Normalize()
	if a.ID() != b.ID() {
		t.Fatalf("same grid, different IDs: %s vs %s", a.ID(), b.ID())
	}
}

func TestSpecKernelHashIgnoresGrid(t *testing.T) {
	a := testSpec()
	b := testSpec()
	b.Alphas = []float64{7}
	b.Ks = []int{3}
	b.Seeds = 9
	a.Normalize()
	b.Normalize()
	if a.ID() == b.ID() {
		t.Fatal("different grids must be different jobs")
	}
	if a.KernelHash() != b.KernelHash() {
		t.Fatal("kernel hash must not depend on the grid")
	}
	c := testSpec()
	c.N = 13
	c.Normalize()
	if a.KernelHash() == c.KernelHash() {
		t.Fatal("kernel hash must depend on n")
	}
}

func TestSpecValidateRejects(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Variant = "min" },
		func(s *Spec) { s.Graph = "torus" },
		func(s *Spec) { s.Graph = "gnp"; s.P = 0 },
		func(s *Spec) { s.Graph = "gnp"; s.P = 0.01 }, // below ln(n)/n connectivity threshold
		func(s *Spec) { s.N = 1 },
		func(s *Spec) { s.Alphas = nil },
		func(s *Spec) { s.Alphas = []float64{-1} },
		func(s *Spec) { s.Ks = nil },
		func(s *Spec) { s.Ks = []int{0} },
		func(s *Spec) { s.Seeds = 0 },
		func(s *Spec) { s.Alphas = make([]float64, 500); s.Ks = make([]int, 500); s.Seeds = 10 },
		// Overflow probe: seeds huge enough to wrap the naive int product
		// past the cap must still be rejected (regression: a spec like
		// this used to pass Validate and panic grid expansion).
		func(s *Spec) { s.Seeds = 1 << 62 },
	}
	for i, mutate := range bad {
		sp := testSpec()
		sp.Normalize()
		mutate(&sp)
		fixGrid(&sp)
		if err := sp.Validate(); err == nil {
			t.Fatalf("case %d: invalid spec accepted: %+v", i, sp)
		}
	}
}

// fixGrid backfills positive values for the oversized-grid case so only
// the intended defect trips validation.
func fixGrid(sp *Spec) {
	for i := range sp.Alphas {
		if sp.Alphas[i] == 0 {
			sp.Alphas[i] = float64(i + 1)
		}
	}
	for i := range sp.Ks {
		if sp.Ks[i] == 0 && len(sp.Ks) > 1 {
			sp.Ks[i] = i + 1
		}
	}
}

func TestSpecCellsCanonical(t *testing.T) {
	sp := testSpec()
	sp.Normalize()
	cells := sp.Cells()
	want := dynamics.Grid([]float64{0.5, 2}, []int{2, 1000}, 2)
	if len(cells) != len(want) {
		t.Fatalf("cells = %d, want %d", len(cells), len(want))
	}
	for i := range cells {
		if cells[i] != want[i] {
			t.Fatalf("cell %d = %+v, want %+v", i, cells[i], want[i])
		}
	}
}

func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	k1 := dynamics.Cell{Alpha: 1, K: 1, Seed: 0}
	k2 := dynamics.Cell{Alpha: 2, K: 1, Seed: 0}
	k3 := dynamics.Cell{Alpha: 3, K: 1, Seed: 0}
	c.Put("h", k1, []byte("one"))
	c.Put("h", k2, []byte("two"))
	if _, ok := c.Get("h", k1); !ok {
		t.Fatal("k1 missing")
	}
	c.Put("h", k3, []byte("three")) // evicts k2 (least recently used)
	if _, ok := c.Get("h", k2); ok {
		t.Fatal("k2 should have been evicted")
	}
	if line, ok := c.Get("h", k1); !ok || string(line) != "one" {
		t.Fatalf("k1 = %q, %v", line, ok)
	}
	if _, ok := c.Get("other", k1); ok {
		t.Fatal("kernel hash must partition the cache")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	cell := dynamics.Cell{Alpha: 1, K: 1}
	c.Put("h", cell, []byte("x"))
	if _, ok := c.Get("h", cell); ok {
		t.Fatal("disabled cache returned a hit")
	}
	var nilCache *Cache
	nilCache.Put("h", cell, []byte("x"))
	if _, ok := nilCache.Get("h", cell); ok {
		t.Fatal("nil cache returned a hit")
	}
	if st := nilCache.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

func TestStoreCreateJobIdempotent(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	sp.Normalize()
	id1, created1, err := st.CreateJob(sp)
	if err != nil || !created1 {
		t.Fatalf("first create: %v, created=%v", err, created1)
	}
	id2, created2, err := st.CreateJob(sp)
	if err != nil || created2 || id1 != id2 {
		t.Fatalf("second create: %v, created=%v, ids %s/%s", err, created2, id1, id2)
	}
	back, err := st.LoadSpec(id1)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID() != sp.ID() {
		t.Fatal("spec did not round-trip through the store")
	}
	ids, err := st.Jobs()
	if err != nil || len(ids) != 1 || ids[0] != id1 {
		t.Fatalf("jobs = %v, %v", ids, err)
	}
}

// TestSpecValidateRejectsOversize pins the two ceilings every entry point
// inherits from Validate: a spec at a cap is accepted (and hashes like any
// other — no field, no normalisation behind the caps), one past it is
// refused with an error that names the cap.
func TestSpecValidateRejectsOversize(t *testing.T) {
	atCap := Spec{N: maxPlayers, Alphas: []float64{maxAlpha}, Ks: []int{2}, Seeds: 1}
	atCap.Normalize()
	if err := atCap.Validate(); err != nil {
		t.Fatalf("spec at both caps rejected: %v", err)
	}
	if got, want := atCap.ID(), "d2973020fa2a627f"; got != want {
		t.Fatalf("spec at the caps hashes to %s, want %s", got, want)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"n one past", func(s *Spec) { s.N = maxPlayers + 1 }, "10000-player cap"},
		{"n from the report", func(s *Spec) { s.N = 4_000_000_000 }, "10000-player cap"},
		{"alpha one past", func(s *Spec) { s.Alphas = []float64{math.Nextafter(maxAlpha, math.Inf(1))} }, "1e+12 cap"},
		{"alpha past int64", func(s *Spec) { s.Alphas = []float64{1, 1e13} }, "1e+12 cap"},
	}
	for _, c := range cases {
		sp := atCap
		c.mutate(&sp)
		err := sp.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Validate = %v, want an error naming the %s", c.name, err, c.want)
		}
	}
}
