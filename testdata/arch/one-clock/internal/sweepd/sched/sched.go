package sched

import "time"

// Another package keeps its own time until its own rule.
func stale(updated time.Time, after time.Duration) bool {
	return time.Since(updated) >= after
}
