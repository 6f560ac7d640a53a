package sweepd

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tokenBucket is a minimal token bucket: rate tokens per second, burst
// capacity, one token per request. A nil bucket is unlimited.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	burst := math.Max(rate, 1)
	return &tokenBucket{rate: rate, burst: burst, tokens: burst}
}

// allow takes one token if one has accrued by now; otherwise it reports
// how long until the next token accrues (the Retry-After hint).
func (tb *tokenBucket) allow(now time.Time) (bool, time.Duration) {
	if tb == nil {
		return true, 0
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if !tb.last.IsZero() {
		tb.tokens = math.Min(tb.burst, tb.tokens+now.Sub(tb.last).Seconds()*tb.rate)
	}
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		return true, 0
	}
	return false, time.Duration((1 - tb.tokens) / tb.rate * float64(time.Second))
}

// rateLimit classifies each request into an endpoint-class bucket and
// sheds load with 429 + Retry-After when the bucket is dry. /healthz,
// /metrics and /peer/members bypass the limiter entirely: the last is
// the peers' liveness probe, and a throttled probe would demote a live
// member.
func (h *handler) rateLimit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" || r.URL.Path == "/peer/members" {
			next.ServeHTTP(w, r)
			return
		}
		bucket, class := h.readBucket, "read"
		switch {
		case strings.HasPrefix(r.URL.Path, "/peer/replicas"):
			bucket, class = h.replicaBucket, "replica"
		case strings.HasPrefix(r.URL.Path, "/peer/"):
			bucket, class = h.peerBucket, "peer"
		case r.Method != http.MethodGet && r.Method != http.MethodHead:
			bucket, class = h.mutateBucket, "mutate"
		}
		ok, wait := bucket.allow(h.m.clock.Now())
		if !ok {
			secs := int(math.Ceil(wait.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			h.throttled.Add(1)
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("rate limit exceeded for %s requests; retry in %ds", class, secs))
			return
		}
		next.ServeHTTP(w, r)
	})
}
