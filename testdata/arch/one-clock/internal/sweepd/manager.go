package sweepd

import wall "time"

type manager struct {
	started wall.Time
	now     func() wall.Time
}

func newManager() *manager {
	return &manager{
		started: wall.Now(), // want: under an aliased import
		now:     wall.Now,   // want: a second clock, not called yet
	}
}

func (m *manager) uptime() wall.Duration {
	return wallClock.Now().Sub(m.started)
}
