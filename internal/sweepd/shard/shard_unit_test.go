package shard

// In-package unit tests for the lease plumbing: peer-URL normalization
// and dedup in New. (Retry-After parsing and the bounded dial belong to
// sweepd.PeerClient and are tested there.)

import (
	"strings"
	"testing"
)

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
