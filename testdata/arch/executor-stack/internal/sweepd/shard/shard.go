package shard

import (
	"context"

	"repro/internal/dynamics"
)

type executor struct{}

func (e *executor) Execute(ctx context.Context, req dynamics.ExecRequest) <-chan dynamics.IndexedResult { // want
	return nil
}
