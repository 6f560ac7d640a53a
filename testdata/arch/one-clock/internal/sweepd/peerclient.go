package sweepd

import "time"

// The peer client's retry wait is on the daemon's clock too.
func wait(d time.Duration) { <-time.After(d) } // want
