package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/construction"
	"repro/internal/table"
)

func tiny() Params { return Params{Scale: ScaleCI, Seed: 7} }

// only runs a driver that reports one table and the verdicts named want,
// in order, and returns that table. It fails t if a verdict does not hold.
func only(t *testing.T, run func(Params) (Report, error), p Params, want ...string) *table.Table {
	t.Helper()
	r, err := run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 1 {
		t.Fatalf("report holds %d tables, want 1", len(r.Tables))
	}
	var names []string
	for _, v := range r.Verdicts {
		if !v.Pass {
			t.Fatalf("%s does not hold:\n%s", v.Name, r.Tables[0])
		}
		names = append(names, v.Name)
	}
	if !slices.Equal(names, want) {
		t.Fatalf("verdicts %v, want %v", names, want)
	}
	return r.Tables[0]
}

func TestTableI(t *testing.T) {
	p := tiny()
	tab := only(t, tableI, p)
	if len(tab.Rows) != len(p.TreeSizes()) {
		t.Fatalf("rows=%d, want %d", len(tab.Rows), len(p.TreeSizes()))
	}
	out := tab.String()
	if !strings.Contains(out, "±") {
		t.Fatal("no confidence intervals rendered")
	}
}

func TestTableII(t *testing.T) {
	p := tiny()
	tab := only(t, tableII, p)
	if len(tab.Rows) != len(p.ERConfigs()) {
		t.Fatalf("rows=%d, want %d", len(tab.Rows), len(p.ERConfigs()))
	}
}

func TestFigure1And2(t *testing.T) {
	f1 := only(t, figure1, tiny(), "Lemma 3.3", "Corollary 3.4", "Lemma 3.5")
	if !strings.Contains(f1.String(), "450") {
		t.Fatalf("Figure 1 should report n=450:\n%s", f1)
	}
	f2 := only(t, figure2, tiny(), "Lemma 3.3", "Corollary 3.4", "Lemma 3.5")
	if !strings.Contains(f2.String(), "72") {
		t.Fatalf("Figure 2 should report n=72:\n%s", f2)
	}
}

func TestTorusDOT(t *testing.T) {
	dot, err := TorusDOT(construction.TorusParams{D: 2, L: 2, Delta: []int{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dot, "graph torus {") || !strings.Contains(dot, "--") {
		t.Fatalf("bad DOT output:\n%.200s", dot)
	}
}

func TestFigure3And4(t *testing.T) {
	f3 := Figure3(100000)
	if len(f3.Rows) != len(regionGridAlphas)*len(regionGridKs) {
		t.Fatalf("figure 3 rows=%d", len(f3.Rows))
	}
	if !strings.Contains(f3.String(), "NE≡LKE") {
		t.Fatal("figure 3 lacks the full-knowledge region")
	}
	f4 := Figure4(100000)
	if !strings.Contains(f4.String(), "Ω(n/k)") {
		t.Fatal("figure 4 lacks the strong lower-bound region")
	}
}

// Every construction keeps its row, and every verdict holds. At seeds 7
// and 254 the randomized girth-8 search fails, and its row carries the
// build error; at seed 1, the CLI default, it builds.
func TestLowerBoundAudit(t *testing.T) {
	for seed, buildFails := range map[int64]bool{1: false, 7: true, 254: true} {
		tab := only(t, lowerBoundAudit, Params{Scale: ScaleCI, Seed: seed},
			"Lemma 3.1", "Lemma 3.2", "Theorem 3.12")
		out := tab.String()
		if len(tab.Rows) != 5 {
			t.Fatalf("seed %d: audit has %d rows, want one per construction (5):\n%s", seed, len(tab.Rows), out)
		}
		failed := strings.Contains(tab.Rows[2][4], "build error: gen: no 3-regular girth-8 graph")
		if tab.Rows[2][0] != "Lemma 3.2 girth-8" || failed != buildFails {
			t.Fatalf("seed %d: girth-8 row %q, build error wanted: %v", seed, tab.Rows[2], buildFails)
		}
	}
}

func TestSumLowerBoundAudit(t *testing.T) {
	only(t, sumLowerBoundAudit, tiny(), "Lemma 4.1")
}

func TestScalesDiffer(t *testing.T) {
	ci, paper := Params{Scale: ScaleCI}, Params{Scale: ScalePaper}
	if len(paper.Alphas()) != 15 || len(paper.Ks()) != 12 || paper.Seeds() != 20 {
		t.Fatal("paper scale does not match §5.1")
	}
	if len(ci.Alphas()) >= len(paper.Alphas()) {
		t.Fatal("CI α grid should be smaller")
	}
	if ci.DynamicsTreeSize() >= paper.DynamicsTreeSize() {
		t.Fatal("CI tree size should be smaller")
	}
}
