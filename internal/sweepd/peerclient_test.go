package sweepd

// Tests for the one daemon-to-daemon call path: Retry-After parsing, the
// 429 wait and its budget, body hygiene (drain, bound, close), and the
// transport's bounded connection establishment.

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func respWithRetryAfter(v string) *http.Response {
	h := http.Header{}
	if v != "" {
		h.Set("Retry-After", v)
	}
	return &http.Response{Header: h}
}

// TestRetryAfterForms covers both wire forms of Retry-After plus the
// clamps: delta-seconds, HTTP-date, and absent/garbage/past values.
func TestRetryAfterForms(t *testing.T) {
	now := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	max := 30 * time.Second
	cases := []struct {
		name   string
		header string
		want   time.Duration
	}{
		{"absent defaults to 1s", "", time.Second},
		{"delta seconds", "7", 7 * time.Second},
		{"delta zero clamps up", "0", 100 * time.Millisecond},
		{"delta beyond max clamps down", "3600", max},
		{"http date", now.Add(5 * time.Second).UTC().Format(http.TimeFormat), 5 * time.Second},
		{"http date beyond max clamps down", now.Add(10 * time.Minute).UTC().Format(http.TimeFormat), max},
		{"http date in the past clamps up", now.Add(-time.Minute).UTC().Format(http.TimeFormat), 100 * time.Millisecond},
		{"surrounding space tolerated", "  9  ", 9 * time.Second},
		{"garbage defaults to 1s", "soon", time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := retryAfter(respWithRetryAfter(tc.header), now, max); got != tc.want {
				t.Fatalf("retryAfter(%q) = %v, want %v", tc.header, got, tc.want)
			}
		})
	}
}

// throttle serves 429 with the given Retry-After for the first n
// requests and {"ok":true} afterwards, counting requests and connections.
type throttle struct {
	srv         *httptest.Server
	reqs, conns atomic.Int32
}

func newThrottle(t *testing.T, n int32, retryAfter string) *throttle {
	th := &throttle{}
	th.srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if th.reqs.Add(1) <= n {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			writeError(w, http.StatusTooManyRequests, "slow down")
			return
		}
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Echo", r.Method+" "+r.Header.Get("Content-Type")+" "+string(body))
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}))
	th.srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			th.conns.Add(1)
		}
	}
	th.srv.Start()
	t.Cleanup(th.srv.Close)
	return th
}

// TestPeerClientHonorsRetryAfter: a 429 is waited out per its hint — in
// both wire forms, clamped to [100ms, what is left of the budget] — and
// the request (body included) is sent again on the same connection;
// onWait sees every wait before it starts, which is what lets the lease
// watchdog stretch itself over the backoff.
func TestPeerClientHonorsRetryAfter(t *testing.T) {
	cases := []struct {
		name      string
		hint      string
		throttled int32
		budget    time.Duration
		wantWaits []time.Duration
	}{
		// An unparsed hint would wait the 1s default, so 100ms proves the parse.
		{"delta seconds", "0", 2, 5 * time.Second, []time.Duration{100 * time.Millisecond, 100 * time.Millisecond}},
		{"http date", time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat), 1, 5 * time.Second, []time.Duration{100 * time.Millisecond}},
		{"http date capped by budget", time.Now().Add(time.Hour).UTC().Format(http.TimeFormat), 1, 120 * time.Millisecond, []time.Duration{120 * time.Millisecond}},
		{"second wait gets the rest of the budget", "1", 2, 1100 * time.Millisecond, []time.Duration{time.Second, 100 * time.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			th := newThrottle(t, tc.throttled, tc.hint)
			var waits []time.Duration
			resp, err := Peer.Do(context.Background(), http.MethodPost, th.srv.URL, "text/x-test", []byte("payload"),
				tc.budget, func(w time.Duration) { waits = append(waits, w) })
			if err != nil {
				t.Fatalf("Do: %v", err)
			}
			discard(resp)
			if got := resp.Header.Get("X-Echo"); got != "POST text/x-test payload" {
				t.Fatalf("retried request arrived as %q", got)
			}
			if len(waits) != len(tc.wantWaits) {
				t.Fatalf("onWait saw %v, want %v", waits, tc.wantWaits)
			}
			for i := range waits {
				if waits[i] != tc.wantWaits[i] {
					t.Fatalf("onWait saw %v, want %v", waits, tc.wantWaits)
				}
			}
			if got := th.reqs.Load(); got != tc.throttled+1 {
				t.Fatalf("server saw %d requests, want %d", got, tc.throttled+1)
			}
			if got := th.conns.Load(); got != 1 {
				t.Fatalf("%d connections opened; the drained 429s should have been reused", got)
			}
		})
	}
}

// TestPeerClientRetryBudget: the cumulative wait stops at the budget and
// the last 429 comes back as the error; a budget of 0 never retries.
func TestPeerClientRetryBudget(t *testing.T) {
	cases := []struct {
		name     string
		budget   time.Duration
		wantReqs int32
	}{
		{"zero budget never retries", 0, 1},
		{"budget spent after two waits", 200 * time.Millisecond, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			th := newThrottle(t, 1000, "0") // every hint clamps up to 100ms
			status, err := Peer.JSON(context.Background(), http.MethodGet, th.srv.URL, nil, nil, 0, tc.budget)
			if err == nil || status != 0 || !strings.Contains(err.Error(), "429") || !strings.Contains(err.Error(), "slow down") {
				t.Fatalf("status %d, err %v; want the 429 and its message as the error", status, err)
			}
			if got := th.reqs.Load(); got != tc.wantReqs {
				t.Fatalf("server saw %d requests, want %d", got, tc.wantReqs)
			}
		})
	}
}

// TestPeerClientWaitHonorsContext: a context canceled mid-wait ends the
// call at once with the context's error, not after the hint. onWait runs
// as the wait begins, so canceling from it needs no sleep.
func TestPeerClientWaitHonorsContext(t *testing.T) {
	th := newThrottle(t, 1000, "3600")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	_, err := Peer.Do(ctx, http.MethodGet, th.srv.URL, "", nil, time.Hour, func(time.Duration) { cancel() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("canceled wait took %v", elapsed)
	}
}

// trackedBody is a response body of size bytes that records how much of
// it was read and whether it was closed.
type trackedBody struct {
	r      io.Reader
	read   int
	closed bool
}

func (b *trackedBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.read += n
	return n, err
}

func (b *trackedBody) Close() error { b.closed = true; return nil }

// cannedClient answers every request with the given status and body.
func cannedClient(status int, body *trackedBody) *PeerClient {
	return &PeerClient{hc: &http.Client{Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: status, Status: http.StatusText(status), Body: body, Header: http.Header{}}, nil
	})}}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestPeerClientBoundsBodies: whatever a peer sends, the client reads a
// bounded amount of it and always closes it — a non-2xx contributes at
// most 4KB to the error, and a 2xx larger than maxBody fails the decode
// instead of being buffered.
func TestPeerClientBoundsBodies(t *testing.T) {
	t.Run("non-2xx drained, closed, message capped", func(t *testing.T) {
		body := &trackedBody{r: strings.NewReader(strings.Repeat("x", 1<<20))}
		_, err := cannedClient(http.StatusInternalServerError, body).Do(context.Background(), http.MethodGet, "http://peer/x", "", nil, 0, nil)
		if err == nil {
			t.Fatal("a 500 came back as success")
		}
		if !body.closed || body.read != 4096 {
			t.Fatalf("closed=%v after reading %d bytes; want closed after exactly 4096", body.closed, body.read)
		}
		if n := len(err.Error()); n < 4096 || n > 4096+200 {
			t.Fatalf("error message is %d bytes; want the 4KB of body plus a short prefix", n)
		}
	})
	t.Run("oversized 2xx fails decode", func(t *testing.T) {
		body := &trackedBody{r: strings.NewReader(`{"pad":"` + strings.Repeat("x", 1<<20) + `"}`)}
		var out struct{ Pad string }
		status, err := cannedClient(http.StatusOK, body).JSON(context.Background(), http.MethodGet, "http://peer/x", nil, &out, 1024, 0)
		if err == nil || status != http.StatusOK {
			t.Fatalf("status %d, err %v; want a decode error on a 200", status, err)
		}
		if !body.closed || body.read > 1024+4096 {
			t.Fatalf("closed=%v after reading %d bytes of a 1MB body with maxBody 1024", body.closed, body.read)
		}
	})
	t.Run("discarded 2xx drained and closed", func(t *testing.T) {
		body := &trackedBody{r: strings.NewReader(`{"accepted":true}`)}
		if _, err := cannedClient(http.StatusOK, body).JSON(context.Background(), http.MethodPost, "http://peer/x", map[string]int{"a": 1}, nil, 0, 0); err != nil {
			t.Fatal(err)
		}
		if !body.closed || body.read != len(`{"accepted":true}`) {
			t.Fatalf("closed=%v after reading %d bytes", body.closed, body.read)
		}
	})
}

// TestPeerClientBoundsDialing: a black-holed peer (non-routable address,
// dropped SYNs) must fail a call within the dial bound on a context with
// no deadline — as a lease request's is — instead of stalling it until
// the lease TTL watchdog fires.
func TestPeerClientBoundsDialing(t *testing.T) {
	t.Parallel()
	// 10.255.255.1 is a non-routable RFC 1918 address: SYNs go nowhere.
	// Some sandboxes reject it instantly instead — also a fast failure,
	// which is all this test asserts.
	start := time.Now()
	_, err := Peer.Do(context.Background(), http.MethodPost, "http://10.255.255.1:9/peer/leases", "application/json", []byte("{}"), time.Hour, nil)
	if err == nil {
		t.Fatal("call against a black hole succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("call took %v to fail; dial is not bounded", elapsed)
	}
}

// TestPeerClientTransportTimeouts pins the construction itself: the
// shared client must carry a bounded dialer, not http.Client{}'s
// unbounded zero transport, and no overall timeout.
func TestPeerClientTransportTimeouts(t *testing.T) {
	tr, ok := Peer.hc.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("peer client transport is %T, want *http.Transport", Peer.hc.Transport)
	}
	if tr.TLSHandshakeTimeout <= 0 {
		t.Fatal("TLS handshake timeout unset")
	}
	if tr.DialContext == nil {
		t.Fatal("DialContext unset; dials are unbounded")
	}
	if Peer.hc.Timeout != 0 {
		t.Fatal("overall client timeout must stay unset — streams are bounded by the lease watchdog")
	}
}
