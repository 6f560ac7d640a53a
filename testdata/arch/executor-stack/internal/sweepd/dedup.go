package sweepd

import (
	"context"

	"repro/internal/dynamics"
)

type dedupExecutor struct{ next dynamics.Executor }

// A wrapper, its signature split across lines and its parameters renamed.
func (d *dedupExecutor) Execute( // want
	c context.Context,
	r dynamics.ExecRequest,
) <-chan dynamics.IndexedResult {
	return d.next.Execute(c, r)
}

type query struct{}

// Another method named Execute is not an executor.
func (q *query) Execute(ctx context.Context, sql string) error { return nil }
