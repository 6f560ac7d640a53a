package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// PeerClient is the one HTTP call path between daemons: gossip (the
// /peer/members pull, which is also the health probe, and /peer/hello),
// checkpoint fetches, lease streams and replica pushes all go through
// it. It owns what those calls must agree on — a bounded dial, the wait
// on a 429's Retry-After, and draining, bounding and closing every body
// the caller does not get back. It sets
// no overall timeout: each call's deadline is its context's, and a lease
// stream has none (the lease TTL watchdog owns its liveness).
type PeerClient struct {
	hc *http.Client
}

// Peer is the process-wide PeerClient. One transport means one idle
// connection pool per peer, shared by every layer.
var Peer = &PeerClient{hc: &http.Client{Transport: &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	// Without a dial bound a black-holed peer — dropped SYNs, no RST —
	// would hold a lease attempt until the lease TTL, and a probe or
	// checkpoint fetch until its whole call deadline.
	DialContext:         (&net.Dialer{Timeout: 3 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
	TLSHandshakeTimeout: 3 * time.Second,
	MaxIdleConns:        64,
	IdleConnTimeout:     90 * time.Second,
}}}

// PeerCallTimeout is the deadline callers put on a checkpoint fetch or
// replica push, 429 waits included.
const PeerCallTimeout = 30 * time.Second

// Do sends one request and returns the open response of a 2xx answer; the
// caller reads and closes its body under ctx. Any other answer is drained,
// closed and returned as an error carrying at most 4KB of its message. A
// 429 is load shedding (-peer-rate, -replica-rate on the receiver), not
// death: while the cumulative wait is below retryBudget, Do waits out the
// Retry-After hint and sends body again, so a budget of 0 never retries.
// onWait, when non-nil, sees each wait before it starts (the lease
// watchdog extends itself by it).
func (c *PeerClient) Do(ctx context.Context, method, url, contentType string, body []byte, retryBudget time.Duration, onWait func(time.Duration)) (*http.Response, error) {
	for waited := time.Duration(0); ; {
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode/100 == 2 {
			return resp, nil
		}
		msg := discard(resp)
		if resp.StatusCode != http.StatusTooManyRequests || waited >= retryBudget {
			return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, msg)
		}
		wait := retryAfter(resp, Time().Now(), retryBudget-waited)
		if onWait != nil {
			onWait(wait)
		}
		over := make(chan struct{})
		_, stop := Time().AfterFunc(wait, func() { close(over) })
		select {
		case <-over:
		case <-ctx.Done():
			stop()
			return nil, ctx.Err()
		}
		waited += wait
	}
}

// JSON is Do for the request/response calls: in (nil for none) is sent as
// a JSON body, and out (nil to discard the answer) is decoded from at most
// maxBody bytes of a 2xx body — a larger body fails the decode instead of
// being buffered. The returned status is the 2xx code once such an answer
// arrived, even when decoding it then failed, and 0 otherwise.
func (c *PeerClient) JSON(ctx context.Context, method, url string, in, out any, maxBody int64, retryBudget time.Duration) (status int, err error) {
	var body []byte
	contentType := ""
	if in != nil {
		if body, err = json.Marshal(in); err != nil {
			return 0, err
		}
		contentType = "application/json"
	}
	resp, err := c.Do(ctx, method, url, contentType, body, retryBudget, nil)
	if err != nil {
		return 0, err
	}
	defer discard(resp)
	if out != nil {
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: bad response: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// discard reads what is left of a response body, up to 4KB — enough for
// an error message, and a drained body lets the transport reuse the
// connection — closes it, and returns what it read.
func discard(resp *http.Response) string {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) // best effort: the body is being thrown away
	resp.Body.Close()
	return strings.TrimSpace(string(b))
}

// retryAfter reads a 429's Retry-After hint — RFC 7231 allows both
// delta-seconds ("120") and an HTTP-date ("Wed, 21 Oct 2015 07:28:00
// GMT") — clamped to [100ms, max]: a zero, past, absent, or malformed
// hint must not produce a busy-loop, and no hint may outwait max.
func retryAfter(resp *http.Response, now time.Time, max time.Duration) time.Duration {
	wait := time.Second
	if s := strings.TrimSpace(resp.Header.Get("Retry-After")); s != "" {
		if secs, err := strconv.Atoi(s); err == nil {
			wait = time.Duration(secs) * time.Second
		} else if at, err := http.ParseTime(s); err == nil {
			wait = at.Sub(now)
		}
	}
	if wait < 100*time.Millisecond {
		wait = 100 * time.Millisecond
	}
	if wait > max {
		wait = max
	}
	return wait
}
