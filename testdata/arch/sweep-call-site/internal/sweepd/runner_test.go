package sweepd

import (
	"context"
	"testing"

	"repro/internal/dynamics"
)

// Tests may sweep directly to build a reference.
func TestReference(t *testing.T) {
	if _, err := dynamics.SweepContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}
