package stats

import "testing"

func TestRollupGroupsAndSummarizes(t *testing.T) {
	type key struct {
		Alpha float64
		K     int
	}
	r := NewRollup[key]("diameter", "rounds")
	r.Add(key{1, 2}, 4, 10)
	r.Add(key{2, 2}, 6, 20)
	r.Add(key{1, 2}, 8, 30)

	keys := r.Keys()
	if len(keys) != 2 || keys[0] != (key{1, 2}) || keys[1] != (key{2, 2}) {
		t.Fatalf("keys = %v (want first-insertion order)", keys)
	}

	s := r.Summaries(key{1, 2})
	if want := Summarize([]float64{4, 8}); s["diameter"] != want {
		t.Fatalf("diameter = %+v, want %+v", s["diameter"], want)
	}
	if want := Summarize([]float64{10, 30}); s["rounds"] != want {
		t.Fatalf("rounds = %+v, want %+v", s["rounds"], want)
	}
	if s := r.Summaries(key{2, 2}); s["diameter"].N != 1 || s["diameter"].Mean != 6 {
		t.Fatalf("singleton group = %+v", s["diameter"])
	}

	// Unknown keys summarize as empty, not panic.
	if s := r.Summaries(key{9, 9}); s["diameter"].N != 0 || s["rounds"].N != 0 {
		t.Fatalf("unknown key = %+v", s)
	}
}

func TestRollupArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	NewRollup[int]("a", "b").Add(1, 2.0)
}
