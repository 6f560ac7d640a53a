package main

import (
	"sync"
	"syscall"
	"time"
)

// The box is a few cores of a shared host, and the host's other tenants
// set how fast those cores run: the same instructions take 1.0–1.5× as
// long from one minute to the next, with no steal time reported (README,
// "Steadiness"). Beside every timed phase the benchmark therefore times
// a fixed kernel ten times a second, and takes out of the phase's wall
// clock what the measured slowdown added to the part of it a CPU was
// working. A timer-bound phase is left as it was; a CPU-bound one reads
// as it would on the reference box.

// kernelRefMS is the kernel's time on the reference box when nothing
// disturbs it. A box with other cores reads every metric scaled by one
// constant factor; comparisons on that box are unaffected.
const kernelRefMS = 0.27

const kernelPeriod = 100 * time.Millisecond

var kernelBuf = make([]uint64, 1<<15) // 256KiB: resident in L2, like a cell's working set

// kernel is the fixed work: a xorshift stream scattered into and gathered
// from the buffer. No change to the repository can speed it up.
func kernel() uint64 {
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < 120000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (1<<15 - 1)
		kernelBuf[j] += x
		acc += kernelBuf[(j*31)&(1<<15-1)]
	}
	return acc
}

type kernelSample struct {
	at time.Time
	ms float64
}

// calibrator samples the kernel in the background for the length of a
// run. One sample is the fastest of three back-to-back repeats, so a
// repeat cut short by the scheduler does not count as a slow core.
type calibrator struct {
	stop    chan struct{}
	done    sync.WaitGroup
	mu      sync.Mutex
	samples []kernelSample
	sink    uint64
}

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{})}
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		tick := time.NewTicker(kernelPeriod)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
			best := 0.0
			for i := 0; i < 3; i++ {
				t0 := time.Now()
				c.sink += kernel()
				if d := ms(time.Since(t0)); i == 0 || d < best {
					best = d
				}
			}
			c.mu.Lock()
			c.samples = append(c.samples, kernelSample{time.Now(), best})
			c.mu.Unlock()
		}
	}()
	return c
}

func (c *calibrator) close() {
	close(c.stop)
	c.done.Wait()
}

// slowdown is the mean kernel time over [from, to] as a multiple of the
// reference (1 when the window holds no sample).
func (c *calibrator) slowdown(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	sum, n := 0.0, 0
	for _, s := range c.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			sum += s.ms
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n) / kernelRefMS
}

// cpuSeconds is the CPU time the process has used so far, user + system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// phase is one timed stretch of a run with the CPU the process used in
// it.
type phase struct {
	from, to time.Time
	cpu      float64
}

func (p phase) wall() float64 { return p.to.Sub(p.from).Seconds() }

// corrected is the phase's wall clock at reference speed. At most
// min(cpu, wall) of the wall clock had a CPU working for the process;
// that part stretches with the slowdown k, the rest (timers, I/O) does
// not. A phase that keeps every core busy reads wall ÷ k.
func (c *calibrator) corrected(p phase) float64 {
	k := c.slowdown(p.from, p.to)
	return p.wall() - min(p.cpu, p.wall())*(1-1/k)
}
