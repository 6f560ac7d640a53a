package experiments

import (
	"testing"

	"repro/internal/dynamics"
)

// A test may sweep directly to pin what the runner prints.
func TestRunnerMatchesDirectSweep(t *testing.T) {
	if _, err := dynamics.Sweep(nil, dynamics.SweepOptions{}); err != nil {
		t.Fatal(err)
	}
}
