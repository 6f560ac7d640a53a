package node

import "repro/internal/sweepd/cluster"

// New is the one assembly: every constructor is allowed here.
func New() *cluster.Registry { return cluster.New(cluster.Options{}) }
