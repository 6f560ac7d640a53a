package main

import (
	"context"

	engine "repro/internal/dynamics"
	"repro/internal/experiments"
)

func main() {
	opts := engine.SweepOptions{}                               // want: a sweep option under an aliased import
	_, _ = engine.SweepContext(context.Background(), nil, opts) // want
	_ = experiments.Open
}
