package sweepd

import "repro/internal/sweepd/sched"

type Cluster interface{ Alive() []string }

func probe(c Cluster) {
	if lt, ok := c.(LeaseTable); ok { // want
		_ = lt
	}
	if s, ok := c.(interface{ Self() string }); ok { // want
		_ = s
	}
	if m, ok := c.(sched.Membership); ok { // want: qualified
		_ = m
	}
	switch c.(type) {
	case FailureReporter: // want: a type switch
	case error:
	}
	var v any = c
	if err, ok := v.(error); ok {
		_ = err
	}
}
