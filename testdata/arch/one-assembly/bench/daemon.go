package main

import "repro/internal/sweepd/sched"

// bench/ keeps its own copy of the assembly until it boots node.New.
func bootDaemon(opts sched.Options) { _, _ = sched.New(opts) }
