package experiments

import "testing"

// theory runs the registry's theory entry at the micro grid plus α = 0.1,
// where k = 2 is the smallest radius Theorem 4.4 applies to.
func theory(t *testing.T) (Params, Report) {
	t.Helper()
	p := micro(t)
	p.AlphaGrid = append([]float64{0.1}, p.AlphaGrid...)
	for _, e := range All {
		if e.ID == "theory" {
			r, err := e.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Tables) != 4 || len(r.Verdicts) != 4 {
				t.Fatalf("theory reports %d tables and %d verdicts, want 4 and 4", len(r.Tables), len(r.Verdicts))
			}
			// The last two checks read no sweep, so they hold at any grid.
			for i, name := range []string{"Classical NE thresholds", "NE ⊆ LKE"} {
				if v := r.Verdicts[2+i]; v.Name != name || !v.Pass {
					t.Fatalf("verdict %+v, want %s to hold:\n%s", v, name, r.Tables[2+i])
				}
			}
			return p, r
		}
	}
	t.Fatal("no theory entry in All")
	return p, Report{}
}

func TestCorollary314Check(t *testing.T) {
	p, r := theory(t)
	tab, v := r.Tables[0], r.Verdicts[0]
	if v.Name != "Corollary 3.14" || !v.Pass {
		t.Fatalf("Corollary 3.14 violated empirically (%+v):\n%s", v, tab)
	}
	if len(tab.Rows) != len(p.Alphas())*len(p.Ks()) {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
}

func TestTheorem44Check(t *testing.T) {
	_, r := theory(t)
	tab, v := r.Tables[1], r.Verdicts[1]
	if v.Name != "Theorem 4.4" || !v.Pass {
		t.Fatalf("Theorem 4.4 violated empirically (%+v):\n%s", v, tab)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
}
