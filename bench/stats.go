package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// quantile is the linear-interpolation quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b with 0/0 = 0, so a workload a metric does not apply to
// reports 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quartileSpread is the driver's steadiness measure: the distance
// between the first and third quartile (Python's statistics.quantiles,
// n=4, exclusive method) as a share of the median.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th quartile cut, exclusive method
		pos := float64(i)*float64(len(s)+1)/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			return s[0]
		}
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return ratio(at(3)-at(1), median(s))
}

// span is one timed interval at a layer boundary. Spans of one job
// share its index; parent is an index into the tracer's slice (-1 for
// a root). Kept in memory during the run, written out when it ends.
type span struct {
	name    string
	job     int
	cell    int
	parent  int
	startNS int64
	endNS   int64
}

// tracer collects spans; the two clients of a traced pass share one. A
// nil tracer records nothing, so untraced passes run the same code.
type tracer struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, job, cell, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, job: job, cell: cell, parent: parent, startNS: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

// end closes the span and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].endNS = int64(time.Since(t.epoch))
	return time.Duration(t.spans[i].endNS - t.spans[i].startNS)
}

// add records a span measured by the caller.
func (t *tracer) add(name string, job, cell, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, job: job, cell: cell, parent: parent, startNS: s, endNS: s + int64(d)})
}

// selfTimes sums, per span name, each span's duration minus the part
// its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.endNS - s.startNS
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.name] += time.Duration(s.endNS - s.startNS - child[i])
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for _, s := range t.spans {
		b = append(b[:0], `{"name":"`...)
		b = append(b, s.name...)
		b = append(b, `","workload":"`...)
		b = append(b, t.workload...)
		b = append(b, `","job":`...)
		b = strconv.AppendInt(b, int64(s.job), 10)
		b = append(b, `,"cell":`...)
		b = strconv.AppendInt(b, int64(s.cell), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.startNS, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.endNS, 10)
		b = append(b, "}\n"...)
		w.Write(b) //nolint:errcheck // surfaced by Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
