// Package ncgio serializes game states and sweep results so equilibria
// found by long experiment runs can be saved, inspected, and re-audited
// later. The on-disk format is stable JSON: a state is its player count
// plus the sorted arc list (buyer → target), which is exactly the
// information content of a strategy profile σ.
//
// Framing. Checkpoints, trajectory sidecars, cache segments and replica
// bodies are JSONL: a record is a non-blank line terminated by '\n', and
// bytes after the last newline are a torn tail — the trace of a crash
// mid-append — never a record. Lines is that rule and the only place it is
// written. Readers skip blank lines and leave a tail alone; only a file's
// owner, about to append again, may truncate one (ReadCheckpoint,
// RepairTail). Whoever stores foreign bytes verbatim also refuses padding
// and blank lines, which Lines' offsets reveal.
package ncgio

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/game"
)

// stateJSON is the wire form of a strategy profile.
type stateJSON struct {
	// N is the number of players.
	N int `json:"n"`
	// Arcs lists bought edges as [buyer, target] pairs in canonical
	// (buyer-major, target-minor) order.
	Arcs [][2]int `json:"arcs"`
}

// EncodeState writes s to w as JSON.
func EncodeState(w io.Writer, s *game.State) error {
	out := stateJSON{N: s.N()}
	for u := 0; u < s.N(); u++ {
		for _, v := range s.Strategy(u) {
			out.Arcs = append(out.Arcs, [2]int{u, v})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// maxStatePlayers caps a decoded state's player count: a state costs
// memory in proportion to n however few bytes spell it, peers send the
// bytes, and the runtime treats the 32 GB a line naming n = 4e9 asks for
// as fatal. 100× the largest n a sweep spec may name.
const maxStatePlayers = 1 << 20

// DecodeState reads a state previously written by EncodeState. The
// decoded state passes game.Validate by construction; malformed arcs
// (out-of-range ids, self-buys, duplicates) are rejected.
func DecodeState(r io.Reader) (*game.State, error) {
	var in stateJSON
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

// MarshalState returns the JSON bytes of a state (the cell-result codec
// embeds them in every line).
func MarshalState(s *game.State) (json.RawMessage, error) {
	out := stateJSON{N: s.N()}
	for u := 0; u < s.N(); u++ {
		for _, v := range s.Strategy(u) {
			out.Arcs = append(out.Arcs, [2]int{u, v})
		}
	}
	return json.Marshal(out)
}
