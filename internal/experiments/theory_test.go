package experiments

import "testing"

func TestCorollary314Check(t *testing.T) {
	p := micro(t)
	tab, holds, err := Corollary314Check(p)
	if err != nil {
		t.Fatal(err)
	}
	if !holds {
		t.Fatalf("Corollary 3.14 violated empirically:\n%s", tab)
	}
	if len(tab.Rows) != len(p.Alphas())*len(p.Ks()) {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
}

func TestTheorem44Check(t *testing.T) {
	p := micro(t)
	tab, holds, err := Theorem44Check(p)
	if err != nil {
		t.Fatal(err)
	}
	if !holds {
		t.Fatalf("Theorem 4.4 violated empirically:\n%s", tab)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
}
