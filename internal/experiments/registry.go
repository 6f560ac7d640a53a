package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/table"
)

// Experiment is one entry of the paper's evaluation: the id that
// `ncg-experiments -run` selects and the driver that computes it.
type Experiment struct {
	ID  string
	Run func(Params) (Report, error)
}

// Report is what a driver computes: its tables, and the checks it makes
// against a claim of the paper.
type Report struct {
	Tables   []*table.Table
	Verdicts []Verdict
}

// Verdict is the outcome of one checked claim.
type Verdict struct {
	Name string
	Pass bool
}

// regionN is the network size at which Figures 3–4 are evaluated.
const regionN = 100000

// All is the paper's evaluation in print order: ncg-experiments (its -run
// ids and their -h list) and the root benchmarks iterate it.
var All = []Experiment{
	{"tableI", tableI},
	{"tableII", tableII},
	{"fig1", figure1},
	{"fig2", figure2},
	{"fig3", func(Params) (Report, error) { return tables(Figure3(regionN)), nil }},
	{"fig4", func(Params) (Report, error) { return tables(Figure4(regionN)), nil }},
	{"fig5", figure5},
	{"fig6", figure6},
	{"fig7", figure7},
	{"fig8", figure8},
	{"fig9", figure9},
	{"fig10", figure10},
	{"census", cycleCensus},
	{"dialects", dialectComparison},
	{"audit", join(lowerBoundAudit, sumLowerBoundAudit)},
	{"theory", join(corollary314, theorem44, classicalThresholds, neInsideLKE)},
}

// tables is the report of a driver that checks no claim.
func tables(ts ...*table.Table) Report { return Report{Tables: ts} }

// join runs drivers in turn and concatenates their reports.
func join(runs ...func(Params) (Report, error)) func(Params) (Report, error) {
	return func(p Params) (Report, error) {
		var all Report
		for _, run := range runs {
			r, err := run(p)
			if err != nil {
				return Report{}, err
			}
			all.Tables = append(all.Tables, r.Tables...)
			all.Verdicts = append(all.Verdicts, r.Verdicts...)
		}
		return all, nil
	}
}

// Write renders r: each table as ASCII, or as CSV after a "# <title>"
// line, followed by a blank line; then, if r has verdicts, one line of
// "<Name> holds: <Pass>" joined by "; ".
func (r Report) Write(w io.Writer, csv bool) {
	for _, t := range r.Tables {
		if csv {
			fmt.Fprintf(w, "# %s\n", t.Title)
			t.RenderCSV(w)
		} else {
			t.Render(w)
		}
		fmt.Fprintln(w)
	}
	held := make([]string, len(r.Verdicts))
	for i, v := range r.Verdicts {
		held[i] = fmt.Sprintf("%s holds: %v", v.Name, v.Pass)
	}
	if len(held) > 0 {
		fmt.Fprintln(w, strings.Join(held, "; "))
	}
}
