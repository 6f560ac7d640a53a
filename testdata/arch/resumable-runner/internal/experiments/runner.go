package experiments

import (
	"context"
	"hash/fnv" // want

	"repro/internal/dynamics"
	"repro/internal/sweepd/store"
)

func run(ctx context.Context, name string) error {
	h := fnv.New64a()
	h.Write([]byte(name))
	w, err := store.NewCheckpointWriter(name) // want
	if err != nil {
		return err
	}
	defer w.Close()
	_, err = dynamics.Sweep(nil, dynamics.SweepOptions{}) // want
	return err
}
