package dynamics

import "context"

// Tests may fake an executor.
type fakeExecutor struct{}

func (f *fakeExecutor) Execute(ctx context.Context, req ExecRequest) <-chan IndexedResult {
	return nil
}
