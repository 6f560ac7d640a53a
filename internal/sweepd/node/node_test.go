package node

import (
	"context"
	"net"
	"net/http"
	"strings"
	"testing"
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
