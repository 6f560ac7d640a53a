package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"testing"
	"time"

	"repro/internal/sweepd"
)

// FuzzMergeGossip feeds arbitrary bytes through the gossip path: decoded
// as httpTransport.call decodes a pulled payload (at most 4MB, nothing
// merged when it does not decode) and merged into a registry with a known
// table. Whatever the bytes, self, invalid and tombstoned URLs never
// become members, a gossiped tombstone never removes a member this
// registry holds alive, and a lease without a job ID, an owner or a
// generation never enters the table. The seeds are mesh payloads
// (gossipOf) and hand-written hostile ones.
func FuzzMergeGossip(f *testing.F) {
	const self, alive, from, dead = "http://self:1", "http://a:1", "http://b:2", "http://dead:3"
	net := newMeshNet()
	for i := 0; i < 3; i++ {
		var seeds []string
		if i > 0 {
			seeds = []string{meshURL(0)}
		}
		net.add(i, Options{ProbeInterval: time.Hour}, seeds...).probeOnce()
		net.settle()
	}
	net.regs[meshURL(1)].UpdateLease(sweepd.JobLease{JobID: "0123456789abcdef", Owner: meshURL(1), Generation: 3})
	for _, r := range net.regs {
		addGossip(f, gossipOf(r))
	}
	addGossip(f, &sweepd.MembersResponse{
		Members: []sweepd.MemberInfo{{URL: self}, {URL: "ftp://x"}, {URL: dead + "/"}, {URL: "http://c:3"}},
		Leases: []sweepd.JobLease{
			{JobID: "j1", Owner: from, Generation: 1},
			{JobID: "j2", Owner: "", Generation: 1},
			{JobID: "j3", Owner: from},
			{Owner: from, Generation: 2},
			{JobID: "j4", Owner: alive, Generation: 9},
		},
		Tombstones: []sweepd.Tombstone{{URL: alive, Until: time.Now().Add(time.Hour)}, {URL: from, Until: time.Now().Add(time.Hour)}},
	})
	f.Add([]byte(`{"members":[{"url":"http://self:1"}],"leases":[{"job_id":"x","generation":1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		mr := new(sweepd.MembersResponse)
		if json.NewDecoder(io.LimitReader(bytes.NewReader(data), 4<<20)).Decode(mr) != nil {
			return
		}
		r := New(Options{Self: self, Seeds: []string{alive, from}})
		now := sweepd.Time().Now()
		r.tombs[dead] = now.Add(time.Hour)
		r.UpdateLease(sweepd.JobLease{JobID: "held", Owner: alive, Generation: 2})

		r.mu.Lock()
		r.mergeGossipLocked(from, mr, now)
		r.mu.Unlock()

		tombs := map[string]bool{}
		for _, ts := range r.Tombstones() {
			tombs[ts.URL] = true
		}
		for _, m := range r.Members() {
			if !m.Self && (m.URL == self || !sweepd.ValidPeerURL(m.URL) || m.URL == dead || tombs[m.URL]) {
				t.Errorf("%q became a member", m.URL)
			}
		}
		if got := r.AlivePeers(); !slices.Equal(got, []string{alive, from}) {
			t.Errorf("alive peers %v after the merge, want %s and %s kept", got, alive, from)
		}
		for _, l := range r.Leases() {
			if l.JobID == "" || l.Owner == "" || l.Generation == 0 {
				t.Errorf("lease %+v entered the table", l)
			}
		}
	})
}

func addGossip(f *testing.F, mr *sweepd.MembersResponse) {
	b, err := json.Marshal(mr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
}
