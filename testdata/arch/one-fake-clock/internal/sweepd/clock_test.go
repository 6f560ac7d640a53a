package sweepd

import "time"

type fakeClock struct{ t time.Time }

func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }
