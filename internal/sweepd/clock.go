package sweepd

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// clock is the package's one time source. The Manager holds it; job and
// replica stamps, uptime, TTL GC, rate limits, the follow drain and both
// streams' keep-alives read it there. wallClock is the only
// implementation outside tests.
type clock interface {
	Now() time.Time
	NewTicker(d time.Duration) (<-chan time.Time, func()) // C and Stop
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) NewTicker(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d)
	return t.C, t.Stop
}

// keepAliveInterval is how long a follow or lease stream may stay silent
// before a blank line goes out: proxies keep it open, and a leader's
// lease watchdog tells a slow follower from a dead one.
const keepAliveInterval = 15 * time.Second

// keepAlive is a stream's "blank line after a quiet interval" rule; a
// stream starts its quiet interval with lastByte = clock.Now(). The mutex
// lets a ticker goroutine beat while another goroutine sends.
type keepAlive struct {
	mu       sync.Mutex
	w        http.ResponseWriter
	clock    clock
	lastByte time.Time
}

// send copies r to the stream and flushes.
func (k *keepAlive) send(r io.Reader) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.sendLocked(r)
}

// beat writes a blank line if nothing went out for keepAliveInterval.
func (k *keepAlive) beat() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.clock.Now().Sub(k.lastByte) < keepAliveInterval {
		return nil
	}
	return k.sendLocked(strings.NewReader("\n"))
}

// sendLocked restarts the quiet interval before it flushes, so a client
// that has read the bytes knows the interval restarted.
func (k *keepAlive) sendLocked(r io.Reader) error {
	if _, err := io.Copy(k.w, r); err != nil {
		return err
	}
	k.lastByte = k.clock.Now()
	return http.NewResponseController(k.w).Flush()
}
