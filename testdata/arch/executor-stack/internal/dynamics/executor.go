package dynamics

import "context"

type ExecRequest struct{}

type IndexedResult struct{}

type LocalExecutor struct{}

// With a third executor, every one is reported.
func (LocalExecutor) Execute(ctx context.Context, req ExecRequest) <-chan IndexedResult { // want
	return nil
}
