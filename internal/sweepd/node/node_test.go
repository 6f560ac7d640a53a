package node

import (
	"context"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestNewRejectsMalformedURLs: a malformed -advertise or -peers entry is
// an error naming the entry, returned before anything is opened; blank
// segments, stray white space and trailing slashes are not malformed.
func TestNewRejectsMalformedURLs(t *testing.T) {
	cases := []struct {
		name, advertise, peers string
		bad                    string // "" = New succeeds
	}{
		{"defaults", "", "", ""},
		{"tidy lists", " http://127.0.0.1:1/ ", ",,http://a:1/, http://a:1 ,https://b:2//", ""},
		{"advertise without scheme", "10.0.0.3:8080", "", "10.0.0.3:8080"},
		{"advertise of another scheme", "ftp://a:1", "", "ftp://a:1"},
		{"advertise without host", "http://", "", "http://"},
		{"peer without scheme", "", "http://a:1,b:2", "b:2"},
		{"peer that is a path", "", "/srv/peer", "/srv/peer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Data = t.TempDir()
			cfg.Advertise, cfg.Peers = tc.advertise, tc.peers
			n, err := New(cfg)
			if tc.bad == "" {
				if err != nil {
					t.Fatal(err)
				}
				n.Close(context.Background())
				return
			}
			if err == nil {
				n.Close(context.Background())
				t.Fatalf("New accepted advertise %q, peers %q", tc.advertise, tc.peers)
			}
			if !strings.Contains(err.Error(), `"`+tc.bad+`"`) {
				t.Fatalf("error %q does not name %q", err, tc.bad)
			}
		})
	}
}

// TestServePprofOnlyWhenSet: Serve answers the API on its listener, and
// /debug/pprof/ only when Config.Pprof is set.
func TestServePprofOnlyWhenSet(t *testing.T) {
	for _, pprof := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Data = t.TempDir()
		cfg.Pprof = pprof
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n.Serve(ln)
		base := "http://" + ln.Addr().String()
		for path, want := range map[string]bool{"/healthz": true, "/debug/pprof/": pprof} {
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if got := resp.StatusCode == http.StatusOK; got != want {
				t.Errorf("pprof %v: GET %s = %s", pprof, path, resp.Status)
			}
		}
		n.Close(context.Background())
	}
}

// TestCloseWaitsForRunningHandlers: Close returns only once every handler
// the server started has returned, even when an already canceled context
// cuts the server off at once; a handler that ignores its request's end
// holds Close until it is released.
func TestCloseWaitsForRunningHandlers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Data = t.TempDir()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var returned atomic.Bool
	n.srv.Handler = n.track(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		close(entered)
		<-release
		returned.Store(true)
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.Serve(ln)
	go func() {
		if resp, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	closed := make(chan struct{})
	go func() {
		n.Close(ctx)
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still running")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	<-closed
	if !returned.Load() {
		t.Fatal("Close returned before the handler did")
	}
}
