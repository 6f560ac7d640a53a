package sched

type Scheduler struct {
	opts struct {
		// The older spelling of any, and no parameter names.
		logf func(string, ...interface{}) // want
	}
}

// A parameter of that type is a call, not an option.
func each(ids []string, logf func(string, ...any)) {
	for _, id := range ids {
		logf("sched: adopted job %s", id)
	}
}
