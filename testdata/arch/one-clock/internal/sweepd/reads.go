package sweepd

import "time"

const followTick = 150 * time.Millisecond

func (m *manager) follow(lastByte time.Time) bool {
	tick := time.NewTicker(followTick) // want
	defer tick.Stop()
	<-time.After(followTick)                                              // want
	return time.Since(lastByte) > followTick || lastByte.After(m.started) // want
}
