package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// render concatenates the tables of the drivers' reports.
func render(t *testing.T, p Params, drivers ...func(Params) (Report, error)) string {
	t.Helper()
	var b strings.Builder
	for _, d := range drivers {
		r, err := d(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range r.Tables {
			b.WriteString(tab.String())
		}
	}
	return b.String()
}

// TestDriversGoldenHash pins the tables every entry of All prints at the
// micro grid, but for the seven that sweep nothing (cmd/ncg-experiments'
// test pins those at -scale ci). A change that moves it has changed a
// cell's result, a base seed, or a table's arithmetic. theory's last two
// tables (classical thresholds, NE ⊆ LKE) sweep nothing either; the
// tables before them hash to 53f4be61…59b9, the hash taken with the
// drivers calling dynamics.Sweep directly (before they became daemon jobs).
// SUM's kernel 1 (the worst-case Δ summed over the whole view) moved two
// rows from f13f6939…a7fa: Theorem 4.4's full-view fraction at α = 0.5,
// k = 2 went 0 → 1, and NE ⊆ LKE's SUMNCG row at α = 0.5, k = 2 went from
// 624 LKE and PoA_LKE 1.433 to 64 and 1.
func TestDriversGoldenHash(t *testing.T) {
	p := micro(t)
	sweepless := []string{"tableI", "tableII", "fig1", "fig2", "fig3", "fig4", "audit"}
	var runs []func(Params) (Report, error)
	for _, e := range All {
		if !slices.Contains(sweepless, e.ID) {
			runs = append(runs, e.Run)
		}
	}
	out := render(t, p, runs...)
	const want = "79ba71020a3457e31395e8df08c2621edde6e053eaa0a359ae3223bc2b46c249"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != want {
		t.Fatalf("driver tables hash to %s, want %s:\n%s", got, want, out)
	}
}

// The §5.1 tree grid has four readers (five with the dialect table's first
// row); on one runner it is one job, computed once.
func TestTreeSweepReadersShareOneJob(t *testing.T) {
	p := micro(t)
	p.TreeSizeGrid = []int{} // Figure 10's right panel sweeps other grids
	render(t, p, figure10, figure5, cycleCensus, corollary314)
	grid := len(p.Alphas()) * len(p.Ks()) * p.Seeds()
	if got := p.Runner.Stats().CellsAppended; got != uint64(grid) {
		t.Fatalf("four readers appended %d cells, want one grid of %d", got, grid)
	}
	if jobs := p.Runner.List(); len(jobs) != 1 {
		t.Fatalf("four readers made %d jobs, want 1", len(jobs))
	}
}

// A checkpoint cut back to a prefix with a torn last line — what a kill
// mid-append leaves — resumes on reopen: same tables, only the missing
// cells appended.
func TestReopenResumesFromTornCheckpoint(t *testing.T) {
	p := micro(t)
	want := render(t, p, figure5, cycleCensus)
	path := p.Runner.ResultsPath(p.Runner.List()[0].ID)
	dir := filepath.Dir(filepath.Dir(path))
	p.Runner.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	const kept = 5
	torn := append(bytes.Join(lines[:kept], nil), lines[kept][:len(lines[kept])/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	p.Runner = open(t, dir)
	if got := render(t, p, figure5, cycleCensus); got != want {
		t.Fatalf("tables differ after resume:\n%s\nwant:\n%s", got, want)
	}
	missing := len(p.Alphas())*len(p.Ks())*p.Seeds() - kept
	if got := p.Runner.Stats().CellsAppended; got != uint64(missing) {
		t.Fatalf("resume appended %d cells, want the %d missing", got, missing)
	}
}

// A sub-grid of a finished grid is a new job of the same kernel: every
// cell is a cache hit.
func TestSubGridIsServedFromCache(t *testing.T) {
	p := micro(t)
	render(t, p, figure5)
	p.AlphaGrid = p.AlphaGrid[1:]
	render(t, p, figure5)
	for _, job := range p.Runner.List() {
		if len(job.Spec.Alphas) == 1 {
			if job.Total != len(p.Ks())*p.Seeds() || job.CacheHits != job.Total {
				t.Fatalf("sub-grid job: %d cache hits of %d cells", job.CacheHits, job.Total)
			}
			return
		}
	}
	t.Fatal("no sub-grid job")
}

// The store failing is an error, never a silent in-memory run: a file
// where the directory should be fails Open, before any cell is computed.
func TestOpenRefusesFileForDirectory(t *testing.T) {
	blocked := filepath.Join(t.TempDir(), "blocked")
	if err := os.WriteFile(blocked, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := Open(filepath.Join(blocked, "sub")); err == nil {
		r.Close()
		t.Fatal("Open succeeded under a regular file")
	}
}

// A grid the daemon's Spec.Validate refuses is the driver's error.
func TestRefusedSpecIsAnError(t *testing.T) {
	p := micro(t)
	p.DynTreeSize = 1
	if _, err := figure5(p); err == nil || !strings.Contains(err.Error(), "n ≥ 2") {
		t.Fatalf("figure5 at n=1: err = %v, want Validate's refusal", err)
	}
}
