package sweepd

import "time"

// The one clock may read the wall and start its tickers.
type Clock struct {
	Now       func() time.Time
	NewTicker func(d time.Duration) (<-chan time.Time, func())
}

var wallClock = &Clock{
	Now: time.Now,
	NewTicker: func(d time.Duration) (<-chan time.Time, func()) {
		t := time.NewTicker(d)
		return t.C, t.Stop
	},
}
