package main

import (
	"testing"

	"repro/internal/sweepd"
)

func TestRegistryIsReplicaTable(t *testing.T) {
	var c sweepd.Cluster
	if _, ok := c.(sweepd.ReplicaTable); !ok { // want: test files too
		t.Skip()
	}
}
