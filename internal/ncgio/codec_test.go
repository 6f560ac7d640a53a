package ncgio

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/gen"
)

// TestAppendFloatMatchesEncodingJSON: the float rule is encoding/json's, on
// the values where its two formats meet and on random bit patterns, and
// the scanner takes each token back to the same float.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 0.1 + 0.2, 1.0 / 3, 123456789.125,
		1e-6, 1e-7, 9.999999e-7, 1.5e-9, 1e-10, 1e-100, math.SmallestNonzeroFloat64,
		1e20, 1e21, 1.5e21, 1e22, 1e100, math.MaxFloat64, -math.MaxFloat64, -1e-7, -1e21,
		float64(1 << 53), float64(math.MaxInt64),
	}
	rng := rand.New(rand.NewSource(1))
	for len(values) < 5000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			values = append(values, f, float64(rng.Intn(1000))/float64(1+rng.Intn(100)))
		}
	}
	for _, f := range values {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got := appendFloat(nil, f)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, encoding/json writes %s", f, got, want)
		}
		s := scanner{b: got}
		if back := s.float(); s.end() != nil || math.Float64bits(back) != math.Float64bits(f) {
			t.Fatalf("scanning %s: %v, %v; want %v", got, back, s.err, f)
		}
	}
}

// edgeResult is a result whose every float field is f.
func edgeResult(f float64, final *game.State) dynamics.CellResult {
	stats := dynamics.RoundStats{Round: 3, Diameter: 2, SocialCost: f, MaxDegree: 4, AvgDegree: f,
		MinBought: -1, AvgBought: f, MaxViewSize: math.MaxInt64, AvgViewSize: f, Quality: f, Unfairness: f}
	return dynamics.CellResult{
		Cell: dynamics.Cell{Alpha: f, K: 1000, Seed: math.MinInt64},
		Result: dynamics.Result{Status: dynamics.Cycled, Rounds: 3, TotalMoves: 7, Final: final,
			FinalStats: stats, PerRound: []dynamics.RoundStats{stats, {}, stats}},
	}
}

// TestCodecMatchesOracleOnEdgeValues: the floats where encoding/json
// switches format, in every float field of every line kind, with and
// without a state, over the state shapes a sweep never ends on.
func TestCodecMatchesOracleOnEdgeValues(t *testing.T) {
	double := game.NewState(5)
	double.Buy(0, 1)
	double.Buy(1, 0) // both endpoints own the edge
	double.Buy(4, 3)
	double.Buy(4, 0)
	states := []*game.State{nil, game.NewState(0), game.NewState(3), double}
	for _, f := range []float64{1e-7, 1e21, math.Copysign(0, -1), 0.1 + 0.2, math.MaxFloat64, 1e-6, 1e20, 2} {
		for _, final := range states {
			CheckAgainstOracle(t, edgeResult(f, final))
		}
	}
	unknown := edgeResult(1, nil)
	unknown.Result.Status = dynamics.Status(99)
	line, err := MarshalCellResult(unknown)
	if want, _ := oracleMarshalCellResult(unknown); err != nil || !bytes.Equal(line, want) {
		t.Fatalf("status outside the enum: %s, %v; encoding/json writes %s", line, err, want)
	}
	if _, err := UnmarshalCell(line); err == nil {
		t.Fatal("a status no run ends with was accepted")
	}
}

// TestNonFiniteFloatsDoNotEncode: Inf and NaN have no JSON spelling, in
// any line kind, as under encoding/json.
func TestNonFiniteFloatsDoNotEncode(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		r := edgeResult(f, nil)
		if line, err := MarshalCellResult(r); err == nil {
			t.Errorf("MarshalCellResult(%v) = %s", f, line)
		}
		if line, err := MarshalTrajectory(dynamics.Cell{Alpha: 1}, r.Result.PerRound); err == nil {
			t.Errorf("MarshalTrajectory(%v) = %s", f, line)
		}
		CheckAgainstOracle(t, r) // the oracle refuses too
	}
}

// nonCanonical returns spellings of a canonical cell-result line that are
// not the bytes MarshalCellResult writes; lenient names the ones
// encoding/json nevertheless reads as the same record — the hole the
// strict scanner closes. line must record α = 1 and at least two arcs.
// (internal/sweepd/strict_test.go holds a copy: test files do not import
// each other.)
func nonCanonical(t testing.TB, line []byte) (variants map[string][]byte, lenient []string) {
	t.Helper()
	sub := func(pattern, repl string) []byte {
		re := regexp.MustCompile(pattern)
		if n := len(re.FindAllIndex(line, -1)); n != 1 {
			t.Fatalf("fixture line matches %s %d times, want once:\n%s", pattern, n, line)
		}
		return re.ReplaceAll(line, []byte(repl))
	}
	variants = map[string][]byte{
		"extra field":         sub(`,"rounds":`, `,"extra":0,"rounds":`),
		"extra field at end":  sub(`\}$`, `,"extra":0}`),
		"extra state field":   sub(`,"arcs":`, `,"m":1,"arcs":`),
		"re-ordered keys":     sub(`"k":(\d+),"seed":(\d+)`, `"seed":${2},"k":${1}`),
		"re-ordered stats":    sub(`"Round":(\d+),"Moves":(\d+)`, `"Moves":${2},"Round":${1}`),
		"duplicate key":       sub(`^\{"alpha":1,`, `{"alpha":2,"alpha":1,`),
		"space after a colon": sub(`"seed":`, `"seed": `),
		"space after a comma": sub(`,"status"`, `, "status"`),
		"space in an arc":     sub(`"arcs":\[\[(\d+),`, `"arcs":[[${1}, `),
		"tab before the end":  sub(`\}$`, "\t}"),
		"1.0":                 sub(`"alpha":1,`, `"alpha":1.0,`),
		"1e0":                 sub(`"alpha":1,`, `"alpha":1e0,`),
		"1E0":                 sub(`"alpha":1,`, `"alpha":1E0,`),
		"10e-1":               sub(`"alpha":1,`, `"alpha":10e-1,`),
		"+1":                  sub(`"alpha":1,`, `"alpha":+1,`),
		"01":                  sub(`"alpha":1,`, `"alpha":01,`),
		"1.0 for an integer":  sub(`"rounds":(\d+),`, `"rounds":${1}.0,`),
		"01 for an integer":   sub(`"rounds":(\d+),`, `"rounds":0${1},`),
		"unsorted arcs":       sub(`"arcs":\[(\[\d+,\d+\]),(\[\d+,\d+\])`, `"arcs":[${2},${1}`),
		"repeated arc":        sub(`"arcs":\[(\[\d+,\d+\])`, `"arcs":[${1},${1}`),
		"escaped status":      sub(`"status":"c`, `"status":"\u0063`),
		"escaped key":         sub(`"status":`, `"st\u0061tus":`),
		"null state":          sub(`"state":\{.*\}\}$`, `"state":null}`),
		"null stats field":    sub(`"Moves":\d+`, `"Moves":null`),
		"trailing bytes":      append(bytes.Clone(line), `{}`...),
		"trailing record":     append(bytes.Clone(line), line...),
		"trailing comma":      sub(`\}$`, `,}`),
	}
	lenient = []string{"extra field", "extra field at end", "extra state field", "re-ordered keys",
		"re-ordered stats", "duplicate key", "space after a colon", "space after a comma", "space in an arc",
		"tab before the end", "1.0", "1e0", "1E0", "10e-1", "unsorted arcs", "escaped status", "escaped key",
		"null state", "null stats field"}
	return variants, lenient
}

// strictFixture is a canonical line nonCanonical can edit.
func strictFixture(t testing.TB) (dynamics.CellResult, []byte) {
	t.Helper()
	final := game.NewState(6)
	final.Buy(0, 1)
	final.Buy(1, 0)
	final.Buy(2, 5)
	final.Buy(4, 3)
	r := dynamics.CellResult{
		Cell: dynamics.Cell{Alpha: 1, K: 2, Seed: 3},
		Result: dynamics.Result{Status: dynamics.Converged, Rounds: 4, TotalMoves: 5, Final: final,
			FinalStats: dynamics.RoundStats{Round: 4, Moves: 0, Diameter: 3, SocialCost: 41.5, Quality: 1.25}},
	}
	line, err := MarshalCellResult(r)
	if err != nil {
		t.Fatal(err)
	}
	return r, line
}

// TestOnlyCanonicalBytesDecode: every respelling of a canonical line is
// refused by both doors, including the ones encoding/json reads as the
// same record; so are the honest line's proper prefixes.
func TestOnlyCanonicalBytesDecode(t *testing.T) {
	r, line := strictFixture(t)
	if cell, err := UnmarshalCell(line); err != nil || cell != r.Cell {
		t.Fatalf("the honest line: %+v, %v", cell, err)
	}
	variants, lenient := nonCanonical(t, line)
	variants["empty arcs list"] = []byte(strings.Replace(string(edgeLine(t, game.NewState(3))), `"arcs":null`, `"arcs":[]`, 1))
	lenient = append(lenient, "empty arcs list")
	for name, bad := range variants {
		if _, err := UnmarshalCellResult(bad); err == nil {
			t.Errorf("%s: UnmarshalCellResult accepted %s", name, bad)
		}
		if _, err := UnmarshalCell(bad); err == nil {
			t.Errorf("%s: UnmarshalCell accepted %s", name, bad)
		}
	}
	for _, name := range lenient {
		got, err := oracleUnmarshalCellResult(variants[name])
		if err != nil {
			t.Errorf("%s: the oracle refuses it too (%v); not a respelling encoding/json reads", name, err)
		} else if name != "null state" && name != "empty arcs list" && !sameResult(got, r) {
			t.Errorf("%s: the oracle reads a different record: %+v", name, got)
		}
	}
	for n := range line {
		if _, err := UnmarshalCell(line[:n]); err == nil {
			t.Fatalf("the %d-byte prefix of the line was accepted: %s", n, line[:n])
		}
	}
}

// edgeLine is the canonical line of a result ending on final.
func edgeLine(t testing.TB, final *game.State) []byte {
	t.Helper()
	line, err := MarshalCellResult(edgeResult(2, final))
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// TestStateBoundsAreChecked: what DecodeState refuses of a profile, the
// line codec refuses at both doors, and the oversize player count before
// anything is sized by it.
func TestStateBoundsAreChecked(t *testing.T) {
	honest := edgeLine(t, game.NewState(3))
	for name, state := range map[string]string{
		"negative n":      `{"n":-1,"arcs":null}`,
		"oversize n":      `{"n":4000000000,"arcs":null}`,
		"n past int64":    `{"n":9223372036854775808,"arcs":null}`,
		"target past n":   `{"n":3,"arcs":[[0,3]]}`,
		"buyer past n":    `{"n":3,"arcs":[[3,0]]}`,
		"negative target": `{"n":3,"arcs":[[0,-1]]}`,
		"self buy":        `{"n":3,"arcs":[[1,1]]}`,
		"duplicate":       `{"n":3,"arcs":[[0,1],[0,1]]}`,
		"descending":      `{"n":3,"arcs":[[1,0],[0,1]]}`,
		"three-element":   `{"n":3,"arcs":[[0,1,2]]}`,
		"unclosed":        `{"n":3,"arcs":[[0,1]`,
	} {
		bad := bytes.Replace(honest, []byte(`{"n":3,"arcs":null}`), []byte(state), 1)
		if bytes.Equal(bad, honest) {
			t.Fatalf("fixture has no empty 3-player state: %s", honest)
		}
		if _, err := UnmarshalCellResult(bad); err == nil {
			t.Errorf("%s: UnmarshalCellResult accepted %s", name, bad)
		}
		if _, err := UnmarshalCell(bad); err == nil {
			t.Errorf("%s: UnmarshalCell accepted %s", name, bad)
		}
	}
}

// TestTrajectoryLinesAreStrict: the sidecar line goes through the same
// scanner as the result line, so only its canonical bytes decode.
func TestTrajectoryLinesAreStrict(t *testing.T) {
	r := edgeResult(1, game.NewState(2))
	tline, err := MarshalTrajectory(r.Cell, r.Result.PerRound)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]string{
		"space":           strings.Replace(string(tline), `,"per_round":`, `, "per_round":`, 1),
		"1.0":             strings.Replace(string(tline), `{"alpha":1,`, `{"alpha":1.0,`, 1),
		"extra field":     strings.Replace(string(tline), `,"per_round":`, `,"x":1,"per_round":`, 1),
		"re-ordered keys": strings.Replace(string(tline), `"Round":3,"Moves":0`, `"Moves":0,"Round":3`, 1),
		"trailing bytes":  string(tline) + "x",
		"torn":            string(tline[:len(tline)-1]),
	} {
		if bad == string(tline) {
			t.Fatalf("%s: the edit did not apply to %s", name, tline)
		}
		if _, err := UnmarshalTrajectory([]byte(bad)); err == nil {
			t.Errorf("%s: UnmarshalTrajectory accepted %s", name, bad)
		}
	}
}

// TestValidateDoorAllocatesNothing: UnmarshalCell makes every check of
// the full decode without building a state; the issue allows it two
// allocations a line and it needs none.
func TestValidateDoorAllocatesNothing(t *testing.T) {
	for _, r := range sampleResults(t, 4) {
		line, err := MarshalCellResult(r)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := UnmarshalCell(line); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("UnmarshalCell allocates %v times on a %d-byte line, want ≤ 2", allocs, len(line))
		}
	}
}

var benchSink any

func BenchmarkCellLine(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := gen.GNPConnected(100, 0.1, rng, 50)
	if err != nil {
		b.Fatal(err)
	}
	r := edgeResult(1.0/3, game.FromGraphRandomOwners(g, rng))
	line, err := MarshalCellResult(r)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink, _ = MarshalCellResult(r)
		}
	})
	b.Run("OracleEncode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink, _ = oracleMarshalCellResult(r)
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink, _ = UnmarshalCellResult(line)
		}
	})
	b.Run("OracleDecode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink, _ = oracleUnmarshalCellResult(line)
		}
	})
	b.Run("Validate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalCell(line); err != nil {
				b.Fatal(err)
			}
		}
	})
}
