package experiments

import "testing"

// theory runs the registry's theory entry at the micro grid.
func theory(t *testing.T) (Params, Report) {
	t.Helper()
	p := micro(t)
	for _, e := range All {
		if e.ID == "theory" {
			r, err := e.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Tables) != 2 || len(r.Verdicts) != 2 {
				t.Fatalf("theory reports %d tables and %d verdicts, want 2 and 2", len(r.Tables), len(r.Verdicts))
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
