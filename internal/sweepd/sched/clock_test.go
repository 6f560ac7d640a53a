package sched_test

// This file is one of three copies, the clock_test.go of internal/sweepd
// and of its sched and shard packages; TestArch's one-fake-clock rule
// holds them equal below the package clause. Each package's tests alias
// daemonClock and installClock to sweepd's Clock and UseClock. One shared
// non-test package would cost the daemon's line and export budgets
// (ROADMAP), and test files cannot be imported.

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is the daemon's clock in tests: Advance moves it, nothing
// else does. Advance runs each timer it reaches, then hands each ticker it
// reaches one tick with a blocking send, so once it returns every loop
// has finished the work of its previous tick. A stopped ticker takes
// nothing.
type fakeClock struct {
	mu      sync.Mutex
	t       time.Time
	tickers map[*fakeTicker]bool
	timers  map[*fakeTimer]bool
	// changed is closed and replaced whenever a ticker or timer starts or
	// stops.
	changed chan struct{}
}

type fakeTicker struct {
	c       chan time.Time
	stopped chan struct{}
	period  time.Duration
	next    time.Time
}

type fakeTimer struct {
	at time.Time
	f  func()
}

// theFake is the fake useFakeClock installed, until its test ends.
var theFake *fakeClock

// useFakeClock makes a fake the daemon's clock until the test ends, or
// returns the one the test already installed. Install it before the
// daemons, which stamp their start when built.
func useFakeClock(t *testing.T) *fakeClock {
	if theFake != nil {
		return theFake
	}
	c := &fakeClock{
		t:       time.Now(),
		tickers: map[*fakeTicker]bool{},
		timers:  map[*fakeTimer]bool{},
		changed: make(chan struct{}),
	}
	restore := installClock(&daemonClock{Now: c.now, NewTicker: c.newTicker, AfterFunc: c.afterFunc})
	theFake = c
	t.Cleanup(func() {
		theFake = nil
		restore()
	})
	return c
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) newTicker(d time.Duration) (<-chan time.Time, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tk := &fakeTicker{c: make(chan time.Time), stopped: make(chan struct{}), period: d, next: c.t.Add(d)}
	c.tickers[tk] = true
	c.signal()
	return tk.c, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.tickers[tk] {
			delete(c.tickers, tk)
			close(tk.stopped)
			c.signal()
		}
	}
}

func (c *fakeClock) afterFunc(d time.Duration, f func()) (func(time.Duration) bool, func() bool) {
	tm := &fakeTimer{f: f}
	arm := func(d time.Duration, on bool) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		was := c.timers[tm]
		delete(c.timers, tm)
		if on {
			tm.at = c.t.Add(d)
			c.timers[tm] = true
		}
		c.signal()
		return was
	}
	arm(d, true)
	return func(d time.Duration) bool { return arm(d, true) }, func() bool { return arm(0, false) }
}

func (c *fakeClock) signal() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// Advance moves the clock by d and fires what it reaches.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	now := c.t
	var fire []func()
	for tm := range c.timers {
		if !tm.at.After(now) {
			fire = append(fire, tm.f)
			delete(c.timers, tm)
			c.signal()
		}
	}
	var due []*fakeTicker
	for tk := range c.tickers {
		if !tk.next.After(now) {
			due = append(due, tk)
		}
		for !tk.next.After(now) {
			tk.next = tk.next.Add(tk.period)
		}
	}
	c.mu.Unlock()
	for _, f := range fire {
		f()
	}
	for _, tk := range due {
		select {
		case tk.c <- now:
		case <-tk.stopped:
		}
	}
}

// stepUntil advances the clock by step until cond holds, and fails the
// test if it does not within max steps.
func (c *fakeClock) stepUntil(t *testing.T, step time.Duration, max int, what string, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i == max {
			t.Fatalf("%s: not after %d steps of %v", what, max, step)
		}
		c.Advance(step)
	}
}

// awaitPending blocks until exactly n tickers and timers are running.
func (c *fakeClock) awaitPending(t *testing.T, n int) {
	t.Helper()
	for {
		c.mu.Lock()
		live, changed := len(c.tickers)+len(c.timers), c.changed
		c.mu.Unlock()
		if live == n {
			return
		}
		select {
		case <-changed:
		case <-time.After(30 * time.Second):
			t.Fatalf("%d tickers and timers running after 30s, want %d", live, n)
		}
	}
}
