package ncgio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/game"
)

// The oracle: the encoding/json codec the hand-written pair of codec.go
// replaced, kept as it was so the pair can be held to it byte for byte.
// Its encoders define the wire bytes; its decoders are the lenient readers
// whose verdict on a canonical line the strict scanner must share.

type oracleCellResult struct {
	Alpha      float64             `json:"alpha"`
	K          int                 `json:"k"`
	Seed       int64               `json:"seed"`
	Status     string              `json:"status"`
	Rounds     int                 `json:"rounds"`
	TotalMoves int                 `json:"total_moves"`
	FinalStats dynamics.RoundStats `json:"final_stats"`
	State      json.RawMessage     `json:"state,omitempty"`
}

type oracleState struct {
	N    int      `json:"n"`
	Arcs [][2]int `json:"arcs"`
}

type oracleTrajectory struct {
	Alpha    float64               `json:"alpha"`
	K        int                   `json:"k"`
	Seed     int64                 `json:"seed"`
	PerRound []dynamics.RoundStats `json:"per_round"`
}

func oracleMarshalState(s *game.State) (json.RawMessage, error) {
	out := oracleState{N: s.N()}
	for u := 0; u < s.N(); u++ {
		for _, v := range s.Strategy(u) {
			out.Arcs = append(out.Arcs, [2]int{u, v})
		}
	}
	return json.Marshal(out)
}

func oracleMarshalCellResult(r dynamics.CellResult) ([]byte, error) {
	out := oracleCellResult{
		Alpha:      r.Cell.Alpha,
		K:          r.Cell.K,
		Seed:       r.Cell.Seed,
		Status:     r.Result.Status.String(),
		Rounds:     r.Result.Rounds,
		TotalMoves: r.Result.TotalMoves,
		FinalStats: r.Result.FinalStats,
	}
	if r.Result.Final != nil {
		state, err := oracleMarshalState(r.Result.Final)
		if err != nil {
			return nil, fmt.Errorf("ncgio: %w", err)
		}
		out.State = state
	}
	return json.Marshal(out)
}

func oracleUnmarshalCellResult(line []byte) (dynamics.CellResult, error) {
	var in oracleCellResult
	if err := json.Unmarshal(line, &in); err != nil {
		return dynamics.CellResult{}, fmt.Errorf("ncgio: %w", err)
	}
	status, ok := dynamics.ParseStatus(in.Status)
	if !ok {
		return dynamics.CellResult{}, fmt.Errorf("ncgio: unknown status %q", in.Status)
	}
	r := dynamics.CellResult{
		Cell: dynamics.Cell{Alpha: in.Alpha, K: in.K, Seed: in.Seed},
		Result: dynamics.Result{
			Status:     status,
			Rounds:     in.Rounds,
			TotalMoves: in.TotalMoves,
			FinalStats: in.FinalStats,
		},
	}
	if len(in.State) > 0 {
		s, err := DecodeState(bytes.NewReader(in.State))
		if err != nil {
			return dynamics.CellResult{}, err
		}
		r.Result.Final = s
	}
	return r, nil
}

func oracleMarshalTrajectory(c dynamics.Cell, perRound []dynamics.RoundStats) ([]byte, error) {
	return json.Marshal(oracleTrajectory{Alpha: c.Alpha, K: c.K, Seed: c.Seed, PerRound: perRound})
}

func oracleUnmarshalTrajectory(line []byte) (TrajectoryRecord, error) {
	var tr oracleTrajectory
	if err := json.Unmarshal(line, &tr); err != nil {
		return TrajectoryRecord{}, fmt.Errorf("ncgio: %w", err)
	}
	return TrajectoryRecord(tr), nil
}

// sameResult reports whether two decoded results agree in everything the
// wire carries (states by the arcs they hold).
func sameResult(a, b dynamics.CellResult) bool {
	fa, fb := a.Result.Final, b.Result.Final
	a.Result.Final, b.Result.Final = nil, nil
	if !reflect.DeepEqual(a, b) || (fa == nil) != (fb == nil) {
		return false
	}
	if fa == nil {
		return true
	}
	if fa.N() != fb.N() {
		return false
	}
	for u := 0; u < fa.N(); u++ {
		if !reflect.DeepEqual(fa.Strategy(u), fb.Strategy(u)) {
			return false
		}
	}
	return true
}

// CheckAgainstOracle holds every encoder and decoder of the package to the
// oracle on one swept cell: the three line kinds and the state file are the
// oracle's bytes, decode to what the oracle decodes, and re-encode to
// themselves; the validate door names the cell. It is exported (from a
// test file, so to tests only) for differential_test.go, which sweeps the
// cells with sweepd's spec table and so cannot live inside this package.
func CheckAgainstOracle(t testing.TB, r dynamics.CellResult) {
	t.Helper()
	line, err := MarshalCellResult(r)
	want, werr := oracleMarshalCellResult(r)
	if (err == nil) != (werr == nil) {
		t.Fatalf("MarshalCellResult error %v, oracle's %v", err, werr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(line, want) {
		t.Fatalf("MarshalCellResult differs from encoding/json:\n got %s\nwant %s", line, want)
	}
	back, err := UnmarshalCellResult(line)
	if err != nil {
		t.Fatalf("canonical line refused: %v\n%s", err, line)
	}
	wantBack, err := oracleUnmarshalCellResult(line)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(back, wantBack) {
		t.Fatalf("UnmarshalCellResult = %+v, oracle decodes %+v", back, wantBack)
	}
	if again, err := MarshalCellResult(back); err != nil || !bytes.Equal(again, line) {
		t.Fatalf("re-encoding the decoded line: %s, %v\nwant %s", again, err, line)
	}
	if cell, err := UnmarshalCell(line); err != nil || cell != r.Cell {
		t.Fatalf("UnmarshalCell = %+v, %v; want %+v", cell, err, r.Cell)
	}
	if final := r.Result.Final; final != nil {
		// The -save file: what json.Encoder wrote, the state and a newline.
		var file bytes.Buffer
		want, _ := oracleMarshalState(final)
		if err := EncodeState(&file, final); err != nil || !bytes.Equal(file.Bytes(), append(want, '\n')) {
			t.Fatalf("EncodeState wrote %q, %v; encoding/json writes %q", file.Bytes(), err, want)
		}
	}

	// The trajectory line, with the cell's own trajectory (nil unless the
	// sweep collected one) and an empty one.
	for _, perRound := range [][]dynamics.RoundStats{r.Result.PerRound, {}} {
		tline, err := MarshalTrajectory(r.Cell, perRound)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := oracleMarshalTrajectory(r.Cell, perRound); !bytes.Equal(tline, want) {
			t.Fatalf("MarshalTrajectory differs from encoding/json:\n got %s\nwant %s", tline, want)
		}
		tr, err := UnmarshalTrajectory(tline)
		if err != nil {
			t.Fatalf("canonical trajectory line refused: %v\n%s", err, tline)
		}
		if want, _ := oracleUnmarshalTrajectory(tline); !reflect.DeepEqual(tr, want) {
			t.Fatalf("UnmarshalTrajectory = %+v, oracle decodes %+v", tr, want)
		}

	}
}
