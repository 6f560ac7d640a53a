package shard

// In-package unit tests for the lease plumbing: peer-URL normalization
// and dedup in New. (Retry-After parsing and the bounded dial belong to
// sweepd.PeerClient and are tested there.)

import (
	"strings"
	"testing"

	"repro/internal/sweepd"
)

// New and staticPeers are the fixture of this package's tests (the
// end-to-end ones in shard_test.go included): a pool over a fixed peer
// list. Both binaries that build a Pool hand NewFromSource a
// cluster.Registry.

// staticPeers is the PeerSource for a fixed -peers list: always "alive",
// exactly the pre-registry behavior.
type staticPeers []string

func (s staticPeers) AlivePeers() []string      { return s }
func (s staticPeers) ReportLeaseFailure(string) {}

// New builds a pool over a static list of peer base URLs (e.g.
// "http://10.0.0.2:8080"). URLs are normalized (trailing slashes
// stripped) and deduplicated, so programmatic callers get the same
// hygiene as the -peers flag — "http://a:1" and "http://a:1/" never
// spawn two lease goroutines against one peer. An empty peer list is
// valid: every job then runs locally.
func New(peers []string, opts Options) *Pool {
	return NewFromSource(staticPeers(sweepd.NormalizePeerURLs(peers)), opts)
}

// TestNewNormalizesAndDedupes: programmatic construction gets the same
// URL hygiene as the -peers flag — "http://a:1/" must not produce
// "//peer/leases" paths, and one peer spelled two ways must not get two
// lease goroutines.
func TestNewNormalizesAndDedupes(t *testing.T) {
	cases := []struct {
		name string
		in   []string
		want []string
	}{
		{"nil", nil, []string{}},
		{"empties dropped", []string{"", "  "}, []string{}},
		{"trailing slash trimmed", []string{"http://a:1/"}, []string{"http://a:1"}},
		{"multiple slashes trimmed", []string{"http://a:1//"}, []string{"http://a:1"}},
		{"whitespace trimmed", []string{" http://a:1 "}, []string{"http://a:1"}},
		{"dup spellings collapse", []string{"http://a:1", "http://a:1/"}, []string{"http://a:1"}},
		{"order preserved", []string{"http://b:2", "http://a:1", "http://b:2/"}, []string{"http://b:2", "http://a:1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := New(tc.in, Options{})
			got := p.source.AlivePeers()
			if len(got) != len(tc.want) {
				t.Fatalf("peers = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("peers = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestLeasePathWellFormed: the executor builds "/peer/leases" requests
// from normalized URLs (no "//peer/leases"), which a strict router would
// 404.
func TestLeasePathWellFormed(t *testing.T) {
	p := New([]string{"http://a:1/"}, Options{})
	peers := p.source.AlivePeers()
	if len(peers) != 1 || strings.HasSuffix(peers[0], "/") {
		t.Fatalf("normalized peers = %v", peers)
	}
	if got := peers[0] + "/peer/leases"; got != "http://a:1/peer/leases" {
		t.Fatalf("lease URL = %q", got)
	}
}
