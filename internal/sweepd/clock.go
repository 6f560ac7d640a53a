package sweepd

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the daemon's one time source: every wall-clock read, ticker,
// timer and wait under internal/sweepd but the store goes through Time().
// It stamps jobs, replicas, members and leases, and paces the Manager's
// uptime and TTL GC, the rate limiter, the follow drain, both streams'
// keep-alives, PeerClient's Retry-After wait, cluster.Registry's probe
// loop and backoff, the shard lease watchdog and the sched heartbeat and
// lease staleness. A test swaps in a fake with UseClock, moving them all.
type Clock struct {
	Now func() time.Time
	// NewTicker returns a ticker's channel and its Stop.
	NewTicker func(d time.Duration) (c <-chan time.Time, stop func())
	// AfterFunc calls f once d has passed; reset restarts the wait at a
	// new duration, and stop cancels it.
	AfterFunc func(d time.Duration, f func()) (reset func(time.Duration) bool, stop func() bool)
}

var wallClock = &Clock{
	Now: time.Now,
	NewTicker: func(d time.Duration) (<-chan time.Time, func()) {
		t := time.NewTicker(d)
		return t.C, t.Stop
	},
	AfterFunc: func(d time.Duration, f func()) (func(time.Duration) bool, func() bool) {
		t := time.AfterFunc(d, f)
		return t.Reset, t.Stop
	},
}

var clock atomic.Pointer[Clock]

func init() { clock.Store(wallClock) }

// Time returns the daemon's clock: the wall clock unless a test installed
// another with UseClock.
func Time() *Clock { return clock.Load() }

// UseClock makes c the daemon's clock until restore is called. A Manager
// stamps its start when built, so a test installs its clock first.
func UseClock(c *Clock) (restore func()) {
	prev := clock.Swap(c)
	return func() { clock.Store(prev) }
}

// keepAliveInterval is how long a follow or lease stream may stay silent
// before a blank line goes out: proxies keep it open, and a leader's
// lease watchdog tells a slow follower from a dead one.
const keepAliveInterval = 15 * time.Second

// keepAlive is a stream's "blank line after a quiet interval" rule; a
// stream starts its quiet interval with lastByte = Time().Now(). The
// mutex lets a ticker goroutine beat while another goroutine sends.
type keepAlive struct {
	mu       sync.Mutex
	w        http.ResponseWriter
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
	if Time().Now().Sub(k.lastByte) < keepAliveInterval {
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
	k.lastByte = Time().Now()
	return http.NewResponseController(k.w).Flush()
}
