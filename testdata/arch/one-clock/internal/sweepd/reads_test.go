package sweepd

import (
	"testing"
	"time"
)

// Tests may wait on the wall clock.
func TestFollow(t *testing.T) {
	if time.Since(time.Now()) > time.Minute {
		t.Fatal("slow")
	}
}
