package experiments

import (
	sd "repro/internal/sweepd"
	peers "repro/internal/sweepd/shard"
)

// A second assembly under other import names is still one, and a
// constructor passed as a value is a call site too.
func wire(reg peers.PeerSource) (*peers.Pool, func(sd.ReplicatorOptions) *sd.Replicator) {
	return peers.NewFromSource(reg, peers.Options{}), sd.NewReplicator // want
}
