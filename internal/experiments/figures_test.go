package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// micro returns a very small grid so figure sweeps stay fast in CI, on a
// runner of the test's own.
func micro(t *testing.T) Params {
	t.Helper()
	return Params{
		Runner:        open(t, t.TempDir()),
		Scale:         ScaleCI,
		Seed:          3,
		AlphaGrid:     []float64{0.5, 2},
		KGrid:         []int{2, 1000},
		SeedsOverride: 3,
		TreeSizeGrid:  []int{12, 20},
		DynTreeSize:   16,
	}
}

// open starts a runner over dir that the test's cleanup closes.
func open(t *testing.T, dir string) *Runner {
	t.Helper()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestFigure5(t *testing.T) {
	p := micro(t)
	tab := only(t, figure5, p)
	if len(tab.Rows) != len(p.Alphas())*len(p.Ks()) {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	out := tab.String()
	if !strings.Contains(out, "min view size") {
		t.Fatalf("missing column:\n%s", out)
	}
	// With k=1000 everyone sees everything: min view size = n.
	// (checked numerically below by scanning rows)
	foundFull := false
	for _, row := range tab.Rows {
		if row[1] == "1000" && strings.HasPrefix(row[2], "16.00") {
			foundFull = true
		}
	}
	if !foundFull {
		t.Fatalf("k=1000 should give full views of size 16:\n%s", out)
	}
}

func TestFigure6(t *testing.T) {
	p := micro(t)
	tab := only(t, figure6, p)
	want := 2 * len(p.TreeSizes()) * len(p.Ks())
	if len(tab.Rows) != want {
		t.Fatalf("rows=%d, want %d", len(tab.Rows), want)
	}
	// Quality is >= 1 for every cell (social cost can't beat the optimum).
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[3], "0.") {
			t.Fatalf("quality below 1 in row %v", row)
		}
	}
}

func TestFigure7(t *testing.T) {
	p := micro(t)
	tab := only(t, figure7, p)
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	hasTree, hasER := false, false
	for _, row := range tab.Rows {
		if row[0] == "tree" {
			hasTree = true
		}
		if strings.HasPrefix(row[0], "ER(") {
			hasER = true
		}
	}
	if !hasTree || !hasER {
		t.Fatalf("missing graph classes: tree=%v er=%v", hasTree, hasER)
	}
}

func TestFigure8And9(t *testing.T) {
	p := micro(t)
	f8 := only(t, figure8, p)
	if len(f8.Rows) != len(p.Alphas())*len(p.Ks()) {
		t.Fatalf("figure 8 rows=%d", len(f8.Rows))
	}
	f9 := only(t, figure9, p)
	for _, row := range f9.Rows {
		// Unfairness is a ratio >= 1.
		if strings.HasPrefix(row[2], "0.") {
			t.Fatalf("unfairness below 1: %v", row)
		}
	}
}

func TestFigure10(t *testing.T) {
	p := micro(t)
	r, err := figure10(p)
	if err != nil {
		t.Fatal(err)
	}
	left, right := r.Tables[0], r.Tables[1]
	if len(left.Rows) != len(p.Alphas())*len(p.Ks()) {
		t.Fatalf("left rows=%d", len(left.Rows))
	}
	if len(right.Rows) != len(p.TreeSizes())*len(p.Ks()) {
		t.Fatalf("right rows=%d", len(right.Rows))
	}
}

func TestFigure5ViewGrowsWithK(t *testing.T) {
	// The paper's Figure 5 headline: the view "rapidly grows as k becomes
	// larger". Check monotonicity of the average view size in k at fixed
	// α on the micro grid.
	p := micro(t)
	p.KGrid = []int{2, 4, 1000}
	tab := only(t, figure5, p)
	// Rows are (α-major, k-minor); compare successive k means per α.
	for i := 0; i+2 < len(tab.Rows); i += 3 {
		var means [3]float64
		for j := 0; j < 3; j++ {
			if _, err := fmt.Sscanf(tab.Rows[i+j][3], "%f", &means[j]); err != nil {
				t.Fatalf("unparsable mean %q", tab.Rows[i+j][3])
			}
		}
		if means[0] > means[1]+1e-9 || means[1] > means[2]+1e-9 {
			t.Fatalf("avg view not monotone in k: %v (rows %v..)", means, tab.Rows[i])
		}
	}
}

func TestCycleCensus(t *testing.T) {
	p := micro(t)
	tab := only(t, cycleCensus, p)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows=%d, want 3", len(tab.Rows))
	}
	// Convergence should dominate (§5.4: cycles are very rare).
	if !strings.HasPrefix(tab.Rows[0][0], "converged") {
		t.Fatalf("first row should be converged: %v", tab.Rows[0])
	}
}
