package sweepd

import (
	"context"
	"time"
)

// JobStatus is the lifecycle state of a sweep job.
type JobStatus string

const (
	// StatusRunning: the worker pool is executing (or resuming) the grid.
	StatusRunning JobStatus = "running"
	// StatusDone: every cell is checkpointed; results are complete.
	StatusDone JobStatus = "done"
	// StatusCanceled: stopped by request or daemon shutdown. The
	// checkpoint keeps its clean prefix; resubmitting the same spec (or
	// restarting the daemon) resumes from it.
	StatusCanceled JobStatus = "canceled"
	// StatusFailed: an I/O error interrupted checkpointing.
	StatusFailed JobStatus = "failed"
)

// Job is a point-in-time snapshot of one sweep job.
type Job struct {
	ID        string    `json:"id"`
	Spec      Spec      `json:"spec"`
	Status    JobStatus `json:"status"`
	Total     int       `json:"total_cells"`
	Completed int       `json:"completed_cells"`
	CacheHits int       `json:"cache_hits"`
	// RemoteCells counts cells of this job whose results were computed by
	// peer daemons (always 0 without a sharding executor).
	RemoteCells int    `json:"remote_cells,omitempty"`
	Error       string `json:"error,omitempty"`
	// Created is when the job was first admitted; Finished is when it
	// last reached a terminal status (zero while running). Both persist
	// in the store's meta.json, so TTL GC survives restarts.
	Created  time.Time `json:"created,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// Replica marks a snapshot served from this daemon's replica of a
	// finished job it never ran (read fan-out), not from the manager's
	// own job table.
	Replica bool `json:"replica,omitempty"`
}

type jobState struct {
	job    Job
	cancel context.CancelFunc
	// canceling is set (under Manager.mu) the moment Cancel is called;
	// the runner only observes the cancellation at its next check, so
	// this flag lets a concurrent resubmit know the job is on its way
	// down and must be restarted rather than returned as "running".
	canceling bool
	// done is closed when the runner goroutine has fully exited (runJob
	// returned and the checkpoint file is closed), gating safe restarts.
	done chan struct{}
	// evicting is set (under Manager.mu) while Evict deletes the job's
	// files; it blocks restarts so no runner starts inside a directory
	// that is being removed.
	evicting bool
	// hist accumulates the wall time of this job's locally computed cells
	// (under Manager.mu); nil for spec-load-failed placeholders.
	hist *latencyHist
	// changed is closed (under Manager.mu) at the job's next status change
	// or eviction, waking every follower; Manager.Watch creates it lazily.
	changed chan struct{}
}

// notify wakes the job's followers and arms a fresh channel for the next
// Watch. Caller holds Manager.mu.
func (js *jobState) notify() {
	if js.changed != nil {
		close(js.changed)
		js.changed = nil
	}
}

// restartable reports whether the job is terminal (or about to be) and
// may be re-admitted. Caller holds Manager.mu.
func (js *jobState) restartable() bool {
	return (js.job.Status == StatusCanceled || js.job.Status == StatusFailed || js.canceling) &&
		!js.evicting
}
