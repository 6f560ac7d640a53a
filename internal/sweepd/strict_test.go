package sweepd

import (
	"bytes"
	"os"
	"regexp"
	"testing"

	"repro/internal/sweepd/store"
)

// nonCanonical returns spellings of a canonical cell-result line that are
// not the bytes ncgio.MarshalCellResult writes — most of them JSON that
// encoding/json reads as the same record, which is how they used to land.
// line must record α = 1 and at least two arcs. (A copy of the table in
// internal/ncgio/codec_test.go, which also holds each entry to the old
// decoder: test files do not import each other.)
func nonCanonical(t testing.TB, line []byte) map[string][]byte {
	t.Helper()
	sub := func(pattern, repl string) []byte {
		re := regexp.MustCompile(pattern)
		if n := len(re.FindAllIndex(line, -1)); n != 1 {
			t.Fatalf("fixture line matches %s %d times, want once:\n%s", pattern, n, line)
		}
		return re.ReplaceAll(line, []byte(repl))
	}
	return map[string][]byte{
		"extra field":         sub(`,"rounds":`, `,"extra":0,"rounds":`),
		"extra field first":   sub(`^\{"alpha"`, `{"x":1,"alpha"`),
		"extra state field":   sub(`,"arcs":`, `,"m":1,"arcs":`),
		"re-ordered keys":     sub(`"k":(\d+),"seed":(\d+)`, `"seed":${2},"k":${1}`),
		"re-ordered stats":    sub(`"Round":(\d+),"Moves":(\d+)`, `"Moves":${2},"Round":${1}`),
		"space after a colon": sub(`"seed":`, `"seed": `),
		"space after a comma": sub(`,"status"`, `, "status"`),
		"space in an arc":     sub(`"arcs":\[\[(\d+),`, `"arcs":[[${1}, `),
		"1.0":                 sub(`"alpha":1,`, `"alpha":1.0,`),
		"1e0":                 sub(`"alpha":1,`, `"alpha":1e0,`),
		"+1":                  sub(`"alpha":1,`, `"alpha":+1,`),
		"01":                  sub(`"alpha":1,`, `"alpha":01,`),
		"unsorted arcs":       sub(`"arcs":\[(\[\d+,\d+\]),(\[\d+,\d+\])`, `"arcs":[${2},${1}`),
		"repeated arc":        sub(`"arcs":\[(\[\d+,\d+\])`, `"arcs":[${1},${1}`),
		"escaped status":      sub(`"status":"c`, `"status":"\u0063`),
		"trailing bytes":      append(bytes.Clone(line), `{}`...),
		"trailing record":     append(bytes.Clone(line), line...),
	}
}

// TestNonCanonicalLineLandsNowhere: a checkpoint whose third record is
// respelled — same cell, same values, other bytes — is refused at each of
// the three doors foreign checkpoint bytes come through. A replica push
// fails verification; adoption seeds, and resume keeps, only the two
// records before it, recomputes the rest, and finishes byte-identical to
// an uninterrupted run.
func TestNonCanonicalLineLandsNowhere(t *testing.T) {
	sp := Spec{N: 10, Alphas: []float64{1, 2}, Ks: []int{2}, Seeds: 4}
	m, recs, _ := honestReplica(t, sp)
	sp.Normalize()
	id, n, damaged := sp.ID(), sp.NumCells(), 2
	want := bytes.Join(recs, nil)
	if _, _, err := VerifyReplica(id, m, store.ReplicaManifest{}, want); err != nil {
		t.Fatalf("the honest body: %v", err)
	}

	for name, bad := range nonCanonical(t, bytes.TrimSuffix(recs[damaged], []byte("\n"))) {
		body := bytes.Join([][]byte{bytes.Join(recs[:damaged], nil), bad, []byte("\n"), bytes.Join(recs[damaged+1:], nil)}, nil)
		if _, _, err := VerifyReplica(id, m, store.ReplicaManifest{}, body); err == nil {
			t.Errorf("%s: VerifyReplica accepted a body holding %s", name, bad)
		}

		for _, door := range []string{"adopt", "resume"} {
			store, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			mgr := NewManager(store, nil, 2)
			if door == "adopt" {
				plantReplica(t, mgr, sp, body, nil)
				_, _, err = mgr.Adopt(sp)
			} else {
				if _, _, err = store.CreateJob(sp); err == nil {
					if err = os.WriteFile(store.ResultsPath(id), body, 0o644); err == nil {
						err = mgr.Resume()
					}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			waitStatus(t, mgr, id, StatusDone)
			mgr.Close()
			if got := mgr.Stats().CellsAppended; got != uint64(n-damaged) {
				t.Errorf("%s: %s kept %d records, want the %d before the respelled one", name, door, uint64(n)-got, damaged)
			}
			if got, err := os.ReadFile(store.ResultsPath(id)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: after %s the checkpoint differs from the uninterrupted run's (%d vs %d bytes, %v)",
					name, door, len(got), len(want), err)
			}
		}
	}
}
