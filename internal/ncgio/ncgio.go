// Package ncgio serializes game states and sweep results so equilibria
// found by long experiment runs can be saved, inspected, and re-audited
// later. The on-disk format is stable JSON: a state is its player count
// plus the sorted arc list (buyer → target), which is exactly the
// information content of a strategy profile σ.
//
// Framing. Checkpoints, trajectory sidecars and replica bodies are JSONL: a record is a non-blank line terminated by '\n', and
// bytes after the last newline are a torn tail — the trace of a crash
// mid-append — never a record. Lines is that rule and the only place it is
// written. Readers skip blank lines and leave a tail alone; only a file's
// owner, about to append again, may truncate one (ReadCheckpoint,
// RepairTail). Whoever stores foreign bytes verbatim, or resumes from a
// checkpoint and sidecar a crash may have damaged, also refuses padding and
// blank lines, which Lines' offsets reveal. A peer lease streams the same
// records, a trajectory cell's sidecar line before its result line.
package ncgio

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/game"
)

// EncodeState writes s to w as one line of JSON.
func EncodeState(w io.Writer, s *game.State) error {
	var a appender
	a.state(s)
	_, err := w.Write(append(a.b, '\n'))
	return err
}

// DecodeState reads a state previously written by EncodeState. The file
// is one people edit, so unlike the line codec this reader is lenient
// about layout: any JSON spelling of the shape, arcs in any order. The
// decoded state passes game.Validate by construction; malformed arcs
// (out-of-range ids, self-buys, duplicates) are rejected.
func DecodeState(r io.Reader) (*game.State, error) {
	var in struct {
		// N is the number of players.
		N int `json:"n"`
		// Arcs lists bought edges as [buyer, target] pairs.
		Arcs [][2]int `json:"arcs"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("ncgio: %w", err)
	}
	if in.N < 0 || in.N > maxStatePlayers {
		return nil, fmt.Errorf("ncgio: player count %d outside [0, %d]", in.N, maxStatePlayers)
	}
	s := game.NewState(in.N)
	for _, arc := range in.Arcs {
		u, v := arc[0], arc[1]
		if u < 0 || u >= in.N || v < 0 || v >= in.N {
			return nil, fmt.Errorf("ncgio: arc (%d,%d) out of range [0,%d)", u, v, in.N)
		}
		if u == v {
			return nil, fmt.Errorf("ncgio: self-buy arc (%d,%d)", u, v)
		}
		if s.Buys(u, v) {
			return nil, fmt.Errorf("ncgio: duplicate arc (%d,%d)", u, v)
		}
		s.Buy(u, v)
	}
	return s, nil
}
