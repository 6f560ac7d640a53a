package graph

import "testing"

// Tests may race the kernel against itself.
func TestPowerStepConcurrent(t *testing.T) {
	done := make(chan bool)
	go func() { PowerStep(nil); done <- true }()
	<-done
}
