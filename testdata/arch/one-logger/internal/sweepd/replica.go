package sweepd

import (
	stdlog "log" // want: under an aliased import
	"log/slog"
)

type ReplicatorOptions struct {
	Fanout int
	Logf   func(format string, args ...any) // want
}

type Replicator struct {
	opts ReplicatorOptions
	// A func of another shape is not a log sink.
	Generation func(jobID string) uint64
	check      func(format string, args ...any) error
}

func (rp *Replicator) warn(id string) {
	slog.Warn("sweepd: replica push failed", "job", id)
	stdlog.Printf("sweepd: job %s under-replicated", id)
}
