package sched

import "time"

// The scheduler's staleness is the daemon's clock's, not the wall's.
func stale(updated time.Time, after time.Duration) bool {
	return time.Since(updated) >= after // want
}
