package sweepd

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
	"repro/internal/sweepd/store"
)

// TestStoreConformance pins the store semantics the manager depends on
// (idempotent creation, spec round-trips, lifecycle metadata, torn-tail
// repair, deletion, orphan sweeping, trajectory reconciliation), each
// subtest against a fresh store.
func TestStoreConformance(t *testing.T) {
	open := func(t *testing.T) *Store {
		t.Helper()
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	spec := func() Spec {
		sp := Spec{N: 10, Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 2}
		sp.Normalize()
		return sp
	}

	t.Run("CreateIdempotent", func(t *testing.T) {
		st := open(t)
		sp := spec()
		id, created, err := st.CreateJob(sp)
		if err != nil || !created {
			t.Fatalf("CreateJob = %q, %v, %v; want created", id, created, err)
		}
		if id != sp.ID() {
			t.Fatalf("CreateJob id = %q, want the content address %q", id, sp.ID())
		}
		// Same spec ⇒ same ID ⇒ same job: the second create must report
		// the existing job, not fail and not duplicate.
		id2, created2, err := st.CreateJob(sp)
		if err != nil || created2 || id2 != id {
			t.Fatalf("second CreateJob = %q, %v, %v; want %q, false, nil", id2, created2, err, id)
		}
	})

	t.Run("SpecRoundTrip", func(t *testing.T) {
		st := open(t)
		sp := spec()
		sp.Trajectories = true
		sp.Normalize()
		id, _, err := st.CreateJob(sp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.LoadSpec(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID() != sp.ID() || !got.Trajectories {
			t.Fatalf("LoadSpec round-trip changed the spec: got %+v, want %+v", got, sp)
		}
		if _, err := st.LoadSpec("ffffffffffffffff"); err == nil {
			t.Fatal("LoadSpec of an absent job must error")
		}
	})

	t.Run("MetaRoundTrip", func(t *testing.T) {
		st := open(t)
		id, _, err := st.CreateJob(spec())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.LoadMeta(id); err == nil {
			t.Fatal("LoadMeta before WriteMeta must error (callers fall back to timestamps)")
		}
		meta := store.Meta{
			Created:  time.Date(2026, 8, 1, 10, 0, 0, 0, time.UTC),
			Finished: time.Date(2026, 8, 1, 11, 0, 0, 0, time.UTC),
		}
		if err := st.WriteMeta(id, meta); err != nil {
			t.Fatal(err)
		}
		got, err := st.LoadMeta(id)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Created.Equal(meta.Created) || !got.Finished.Equal(meta.Finished) {
			t.Fatalf("LoadMeta = %+v, want %+v", got, meta)
		}
	})

	t.Run("AppendAndLoadResults", func(t *testing.T) {
		st := open(t)
		sp := spec()
		id, _, err := st.CreateJob(sp)
		if err != nil {
			t.Fatal(err)
		}
		w, err := st.Appender(id)
		if err != nil {
			t.Fatal(err)
		}
		want := writeCells(t, w, sp, 3)
		got, err := st.LoadResults(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("LoadResults returned %d cells, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Cell != want[i] {
				t.Fatalf("LoadResults[%d].Cell = %+v, want %+v (canonical order)", i, got[i].Cell, want[i])
			}
		}
	})

	t.Run("TornTailRepair", func(t *testing.T) {
		st := open(t)
		sp := spec()
		id, _, err := st.CreateJob(sp)
		if err != nil {
			t.Fatal(err)
		}
		w, err := st.Appender(id)
		if err != nil {
			t.Fatal(err)
		}
		writeCells(t, w, sp, 2)
		// Simulate a crash mid-append: a newline-less half record on the
		// tail. LoadResults must return only the clean prefix, and a
		// fresh Appender must not merge new lines into the torn one.
		f, err := os.OpenFile(st.ResultsPath(id), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"alpha":1,"k":2,"torn`); err != nil {
			t.Fatal(err)
		}
		f.Close()
		got, err := st.LoadResults(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("LoadResults after torn tail returned %d cells, want the 2 clean ones", len(got))
		}
		w2, err := st.Appender(id)
		if err != nil {
			t.Fatal(err)
		}
		line, err := ncgio.MarshalCellResult(cellResult(sp, 2))
		if err != nil {
			t.Fatal(err)
		}
		if err := w2.AppendLine(line); err != nil {
			t.Fatal(err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		got, err = st.LoadResults(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Fatalf("LoadResults after repair+append returned %d cells, want 3", len(got))
		}
	})

	t.Run("Delete", func(t *testing.T) {
		st := open(t)
		id, _, err := st.CreateJob(spec())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.DeleteJob(id); err != nil {
			t.Fatal(err)
		}
		if _, err := st.LoadSpec(id); err == nil {
			t.Fatal("LoadSpec after DeleteJob must error")
		}
		ids, err := st.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 0 {
			t.Fatalf("Jobs after DeleteJob = %v, want none", ids)
		}
		// Deleting an absent job is a no-op, not an error (RemoveAll
		// semantics — eviction retries must stay idempotent).
		if err := st.DeleteJob(id); err != nil {
			t.Fatalf("second DeleteJob errored: %v", err)
		}
	})

	t.Run("JobsSortedCommittedOnly", func(t *testing.T) {
		st := open(t)
		var want []string
		for n := 10; n < 13; n++ {
			sp := Spec{N: n, Alphas: []float64{1}, Ks: []int{2}, Seeds: 1}
			sp.Normalize()
			id, _, err := st.CreateJob(sp)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, id)
		}
		ids, err := st.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != len(want) {
			t.Fatalf("Jobs = %v, want %d jobs", ids, len(want))
		}
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Fatalf("Jobs not sorted: %v", ids)
			}
		}
	})

	t.Run("SweepOrphans", func(t *testing.T) {
		st := open(t)
		committed, _, err := st.CreateJob(spec())
		if err != nil {
			t.Fatal(err)
		}
		// A half-created job: dir without a committed spec (the crash
		// window between MkdirAll and the spec rename).
		orphan := "00000000000000aa"
		if err := os.MkdirAll(filepath.Dir(st.SpecPath(orphan)), 0o755); err != nil {
			t.Fatal(err)
		}
		// A cutoff in the past must remove nothing (the orphan is fresh —
		// it may be a CreateJob in flight).
		removed, err := st.SweepOrphans(time.Now().Add(-time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if removed != 0 {
			t.Fatalf("SweepOrphans(past cutoff) removed %d, want 0", removed)
		}
		// A future cutoff reaps the orphan but never a committed job.
		removed, err = st.SweepOrphans(time.Now().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if removed != 1 {
			t.Fatalf("SweepOrphans(future cutoff) removed %d, want 1", removed)
		}
		if _, err := st.LoadSpec(committed); err != nil {
			t.Fatalf("committed job was swept: %v", err)
		}
	})
}

// cellResult fabricates a valid result for the spec's i-th canonical
// cell (zero Result marshals as a converged run — fine for storage
// semantics, which never inspect outcomes).
func cellResult(sp Spec, i int) dynamics.CellResult {
	return dynamics.CellResult{Cell: sp.CellsRange(i, i+1)[0]}
}

// writeCells appends the spec's first n canonical cells to w (closing
// it) and returns their cells in order.
func writeCells(t *testing.T, w *ncgio.CheckpointWriter, sp Spec, n int) []dynamics.Cell {
	t.Helper()
	var cells []dynamics.Cell
	for i := 0; i < n; i++ {
		line, err := ncgio.MarshalCellResult(cellResult(sp, i))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendLine(line); err != nil {
			t.Fatal(err)
		}
		cells = append(cells, sp.CellsRange(i, i+1)[0])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return cells
}

// TestStoreSpecRoundTripEveryDialect: the on-disk spec is what resume
// and adoption trust, so for one valid spec per dialect × graph family
// CreateJob → LoadSpec must give back the same ID and kernel hash.
func TestStoreSpecRoundTripEveryDialect(t *testing.T) {
	familyParams := map[string]func(*Spec){
		"tree":           func(*Spec) {},
		"gnp":            func(sp *Spec) { sp.P = 0.4 },
		"grid-delete":    func(sp *Spec) { sp.P = 0.3 },
		"pa-tree":        func(*Spec) {},
		"random-regular": func(sp *Spec) { sp.Q = 3 },
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for d := range dialects {
		for g := range graphFamilies {
			params, ok := familyParams[g]
			if !ok {
				t.Fatalf("graph family %q has no parameters in this test; add them", g)
			}
			sp := dialectSpec()
			sp.Dialect, sp.Graph = d, g
			params(&sp)
			sp.Normalize()
			if err := sp.Validate(); err != nil {
				t.Fatalf("dialect %q on %q: %v", d, g, err)
			}
			id, created, err := st.CreateJob(sp)
			if err != nil || !created || id != sp.ID() {
				t.Fatalf("dialect %q on %q: CreateJob = %q, %v, %v; want %q created", d, g, id, created, err, sp.ID())
			}
			got, err := st.LoadSpec(id)
			if err != nil {
				t.Fatal(err)
			}
			if got.ID() != sp.ID() || got.KernelHash() != sp.KernelHash() {
				t.Fatalf("dialect %q on %q: spec changed on disk: got %+v (id %s kernel %s), want %+v (id %s kernel %s)",
					d, g, got, got.ID(), got.KernelHash(), sp, sp.ID(), sp.KernelHash())
			}
		}
	}
}
