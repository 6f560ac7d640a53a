package sweepd

import "time"

// The peer client's retry wait stays on the wall.
func wait(d time.Duration) { <-time.After(d) }
