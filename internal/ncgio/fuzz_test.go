package ncgio

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"repro/internal/dynamics"
)

// sampleCheckpoint is n honest checkpoint records, each line plus '\n'.
func sampleCheckpoint(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range sampleResults(t, n) {
		line, err := MarshalCellResult(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// FuzzLines holds the one framer to a bytes.Split oracle: it yields
// exactly the trimmed non-blank '\n'-terminated lines, each with the
// offset just past its newline, and nothing from a newline-less tail.
func FuzzLines(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("\n"))
	f.Add([]byte("a"))
	f.Add([]byte("a\n"))
	f.Add([]byte("a\nb"))
	f.Add([]byte("\n\n a \t\r\n\n\x00\n \nb\n torn"))
	f.Add([]byte("{\"alpha\":1}\n\n{\"alpha\":2}\n{\"al"))
	f.Fuzz(func(t *testing.T, data []byte) {
		type rec struct {
			line []byte
			end  int
		}
		var want []rec
		parts := bytes.Split(data, []byte{'\n'})
		off := 0
		for _, part := range parts[:len(parts)-1] { // the last part has no newline after it
			off += len(part) + 1
			if line := bytes.TrimSpace(part); len(line) > 0 {
				want = append(want, rec{line, off})
			}
		}
		whole, err := LastCompleteOffset(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		i, prev := 0, 0
		for line, end := range Lines(data) {
			if i >= len(want) {
				t.Fatalf("yielded %q at %d past the oracle's %d lines", line, end, len(want))
			}
			if !bytes.Equal(line, want[i].line) || end != want[i].end {
				t.Fatalf("line %d = %q ending at %d, want %q at %d", i, line, end, want[i].line, want[i].end)
			}
			if len(line) == 0 || bytes.IndexByte(line, '\n') >= 0 || !bytes.Equal(line, bytes.TrimSpace(line)) {
				t.Fatalf("line %d = %q is empty, untrimmed or spans a newline", i, line)
			}
			if end <= prev || end > len(data) || int64(end) > whole || data[end-1] != '\n' {
				t.Fatalf("line %d ends at %d (previous %d, whole-line prefix %d, len %d)", i, end, prev, whole, len(data))
			}
			i, prev = i+1, end
		}
		if i != len(want) {
			t.Fatalf("yielded %d lines, want %d", i, len(want))
		}
		// Stopping early is the consumer's right: no yield after a break.
		for range Lines(data) {
			break
		}
	})
}

// FuzzDecodePrefix: whatever the bytes, DecodePrefix does not panic, its
// clean offset stays inside them, data[:clean] is a fixed point — decoding
// it again gives the same records and consumes all of it — and every
// record it accepts re-encodes to the very line it was decoded from, which
// the encoding/json oracle reads as the same record and the validate door
// as the same cell.
func FuzzDecodePrefix(f *testing.F) {
	honest := sampleCheckpoint(f, 3)
	f.Add(honest)
	f.Add(honest[:len(honest)-17])
	f.Add(append([]byte("\n  "), honest...))
	f.Add(bytes.ReplaceAll(honest, []byte("\n"), []byte(" \n\n")))
	f.Add(append(bytes.Clone(honest), "not json\n"...))
	f.Add([]byte(`{"alpha":1,"k":2,"seed":0,"status":"converged","state":{"n":4000000000,"arcs":[]}}` + "\n"))
	// Added after the first seven so their seed#N names stay put: the
	// strict codec's table of respellings, each between two honest lines.
	_, fixture := strictFixture(f)
	variants, _ := nonCanonical(f, fixture)
	for _, name := range slices.Sorted(maps.Keys(variants)) {
		f.Add(slices.Concat(fixture, []byte("\n"), variants[name], []byte("\n"), fixture, []byte("\n")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean := DecodePrefix(data)
		if clean < 0 || clean > len(data) {
			t.Fatalf("clean = %d outside [0, %d]", clean, len(data))
		}
		again, clean2 := DecodePrefix(data[:clean])
		if clean2 != clean || len(again) != len(recs) {
			t.Fatalf("re-decoding the clean prefix: %d records up to %d, first pass %d up to %d", len(again), clean2, len(recs), clean)
		}
		i := 0
		for line := range Lines(data[:clean]) {
			for _, rec := range []dynamics.CellResult{recs[i], again[i]} {
				if enc, err := MarshalCellResult(rec); err != nil || !bytes.Equal(enc, line) {
					t.Fatalf("record %d was accepted as\n%s\nand re-encodes to\n%s (%v)", i, line, enc, err)
				}
			}
			if want, err := oracleUnmarshalCellResult(line); err != nil || !sameResult(recs[i], want) {
				t.Fatalf("record %d: the encoding/json oracle reads %+v, %v; the scanner %+v", i, want, err, recs[i])
			}
			if cell, err := UnmarshalCell(line); err != nil || cell != recs[i].Cell {
				t.Fatalf("record %d: UnmarshalCell = %+v, %v; the full decode read %+v", i, cell, err, recs[i].Cell)
			}
			i++
		}
		if i != len(recs) {
			t.Fatalf("the clean prefix frames %d lines, DecodePrefix returned %d records", i, len(recs))
		}
		// The two doors agree on the line that ended the prefix, too.
		for line := range Lines(data[clean:]) {
			if _, err := UnmarshalCell(line); err == nil {
				t.Fatalf("UnmarshalCell accepts the line DecodePrefix stopped at: %s", line)
			}
			break
		}
	})
}
