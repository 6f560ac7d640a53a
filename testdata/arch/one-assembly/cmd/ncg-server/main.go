package main

import (
	"repro/internal/sweepd"
	"repro/internal/sweepd/cluster"
	"repro/internal/sweepd/sched"
)

func main() {
	reg := cluster.New(cluster.Options{}) // want
	var mgr *sweepd.Manager
	_, _ = sched.New(sched.Options{Cluster: reg, Manager: mgr}) // want
}
