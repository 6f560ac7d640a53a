package ncgio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/game"
	"repro/internal/gen"
)

func TestStateRoundTrip(t *testing.T) {
	s := game.NewState(5)
	s.Buy(0, 1)
	s.Buy(1, 0) // double ownership survives the round trip
	s.Buy(3, 4)
	var buf bytes.Buffer
	if err := EncodeState(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != s.Fingerprint() {
		t.Fatal("round trip changed the profile")
	}
	if !back.Buys(1, 0) || !back.Buys(0, 1) {
		t.Fatal("double ownership lost")
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStateRoundTrip(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 2 + int(sz%25)
		rng := rand.New(rand.NewSource(seed))
		s := game.FromGraphRandomOwners(gen.RandomTree(n, rng), rng)
		var buf bytes.Buffer
		if err := EncodeState(&buf, s); err != nil {
			return false
		}
		back, err := DecodeState(&buf)
		if err != nil {
			return false
		}
		return back.Fingerprint() == s.Fingerprint() && back.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"garbage":      "not json",
		"negative n":   `{"n":-1,"arcs":[]}`,
		"oversize n":   `{"n":4000000000,"arcs":[]}`,
		"out of range": `{"n":3,"arcs":[[0,5]]}`,
		"self buy":     `{"n":3,"arcs":[[1,1]]}`,
		"duplicate":    `{"n":3,"arcs":[[0,1],[0,1]]}`,
	}
	for name, payload := range cases {
		if _, err := DecodeState(strings.NewReader(payload)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestDecodeEmptyState(t *testing.T) {
	s, err := DecodeState(strings.NewReader(`{"n":0,"arcs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 0 {
		t.Fatal("nonempty")
	}
}
