package store

import "time"

// The store is out of scope.
func sweepOrphans(sweep func(time.Time)) { sweep(time.Now()) }
