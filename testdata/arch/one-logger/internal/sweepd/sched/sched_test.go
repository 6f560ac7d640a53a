package sched

import (
	"log"
	"testing"
)

// Tests may swap the log package's output to capture records.
func TestAdoptionRecord(t *testing.T) {
	prev := log.Writer()
	t.Cleanup(func() { log.SetOutput(prev) })
}
