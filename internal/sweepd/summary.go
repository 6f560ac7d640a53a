package sweepd

import (
	"io"
	"net/http"
	"os"
	"sync"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
	"repro/internal/stats"
)

// GroupSummary is one (α, k) row of a sweep summary: the §5.1 aggregates
// over that group's seeds, each a mean with its 95% CI half-width.
type GroupSummary struct {
	Alpha float64 `json:"alpha"`
	K     int     `json:"k"`
	// Diameter and SocialCostRatio summarize the final networks (the
	// ratio is social cost over the social optimum — "quality" in the
	// paper's figures); Rounds summarizes dynamics length.
	Diameter        stats.Summary `json:"diameter"`
	SocialCostRatio stats.Summary `json:"social_cost_ratio"`
	Rounds          stats.Summary `json:"rounds"`
	// ConvergedRate's mean is the fraction of the group's seeds whose
	// dynamics converged (the CI is over the 0/1 indicator sample).
	ConvergedRate stats.Summary `json:"converged_rate"`
}

// SweepSummary is the /sweeps/{id}/summary payload. While the job runs,
// Cells < TotalCells and the roll-ups cover the results so far.
type SweepSummary struct {
	ID         string         `json:"id"`
	Status     JobStatus      `json:"status"`
	Cells      int            `json:"cells"`
	TotalCells int            `json:"total_cells"`
	Groups     []GroupSummary `json:"groups"`
}

func (h *handler) summary(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Status before data, same invariant as /results: a terminal label is
	// only attached to checkpoint bytes read after the status flipped, so
	// "done" summaries always cover the full grid.
	job, replica, ok := h.lookup(w, r, id)
	if !ok {
		return
	}
	path := h.m.ResultsPath(id)
	if replica {
		// Replica-held finished jobs summarize like any done job: the
		// roll-up runs over the replica checkpoint once, freezes, and
		// serves the frozen payload from then on.
		path = h.m.Replicas().ResultsPath(id)
		h.replicaReads.Add(1)
	}
	h.mu.Lock()
	st := h.summaries[id]
	if st == nil {
		st = newSummaryState()
		h.summaries[id] = st
	}
	h.mu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.final != nil {
		writeJSON(w, http.StatusOK, *st.final)
		return
	}
	if err := st.advance(path); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sum := st.build(job)
	if job.Status == StatusDone {
		// A done job's checkpoint never grows again, so freeze the built
		// summary and release the raw samples — long-lived daemons keep
		// one small payload per finished job instead of every per-cell
		// observation. (Canceled/failed jobs can be resumed, so their
		// samples stay live.)
		st.final = &sum
		st.roll = nil
	}
	writeJSON(w, http.StatusOK, sum)
}

// summaryGroupKey groups cells by parameter pair.
type summaryGroupKey struct {
	alpha float64
	k     int
}

// summaryState incrementally accumulates one job's per-(α,k) roll-up:
// each /summary request decodes only the checkpoint bytes appended since
// the previous one, so dashboard polling costs O(new cells) — never a
// full-grid re-read with every cell's final state decoded per poll.
// Checkpoints are appended in canonical α-major order, so first-seen
// group order is canonical too.
type summaryState struct {
	mu    sync.Mutex
	off   int64 // checkpoint bytes consumed so far
	cells int
	roll  *stats.Rollup[summaryGroupKey]
	// final is the frozen summary of a done job; once set, roll is
	// released and requests serve this payload directly.
	final *SweepSummary
}

func newSummaryState() *summaryState {
	return &summaryState{
		roll: stats.NewRollup[summaryGroupKey]("diameter", "social_cost_ratio", "rounds", "converged"),
	}
}

func (st *summaryState) reset() {
	fresh := newSummaryState()
	st.off, st.cells, st.roll = fresh.off, fresh.cells, fresh.roll
}

// advance folds the checkpoint's newly appended clean records into the
// roll-up. A file that vanished or shrank below the consumed offset means
// the checkpoint was replaced (per-cell determinism guarantees any
// rewrite is prefix-identical, so only an actual shrink forces a rebuild).
func (st *summaryState) advance(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		if st.off > 0 {
			st.reset()
		}
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	if size < st.off {
		st.reset()
	}
	if size == st.off {
		return nil
	}
	buf := make([]byte, size-st.off)
	if _, err := io.ReadFull(io.NewSectionReader(f, st.off, size-st.off), buf); err != nil {
		return err
	}
	recs, clean := ncgio.DecodePrefix(buf)
	for _, r := range recs {
		conv := 0.0
		if r.Result.Status == dynamics.Converged {
			conv = 1
		}
		st.roll.Add(summaryGroupKey{r.Cell.Alpha, r.Cell.K},
			float64(r.Result.FinalStats.Diameter),
			r.Result.FinalStats.Quality,
			float64(r.Result.Rounds),
			conv)
	}
	st.off += int64(clean)
	st.cells += len(recs)
	return nil
}

func (st *summaryState) build(job Job) SweepSummary {
	out := SweepSummary{
		ID:         job.ID,
		Status:     job.Status,
		Cells:      st.cells,
		TotalCells: job.Total,
		Groups:     []GroupSummary{},
	}
	for _, key := range st.roll.Keys() {
		s := st.roll.Summaries(key)
		out.Groups = append(out.Groups, GroupSummary{
			Alpha:           key.alpha,
			K:               key.k,
			Diameter:        s["diameter"],
			SocialCostRatio: s["social_cost_ratio"],
			Rounds:          s["rounds"],
			ConvergedRate:   s["converged"],
		})
	}
	return out
}
