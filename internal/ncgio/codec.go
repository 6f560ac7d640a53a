package ncgio

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"repro/internal/dynamics"
	"repro/internal/game"
)

// The line codec. Every record this package frames — a cell-result line or
// a trajectory sidecar line, in a file or on a lease stream — is written
// by the appender below and read back by the scanner below, and by nothing
// else.
// The appender's bytes are the ones encoding/json wrote for the same shapes
// (fixed key order, no white space, its float rule); the scanner accepts
// exactly the bytes the appender produces, so a line that decodes is the
// canonical encoding of what it decodes to and may be stored or compared
// as bytes. oracle_test.go keeps the encoding/json codec and holds
// the pair to it.

// appender assembles one record. A value with no encoding (a non-finite
// float) sets err, which sticks; bytes appended after that are discarded
// by done.
type appender struct {
	b   []byte
	err error
}

func (a *appender) str(s string) { a.b = append(a.b, s...) }

func (a *appender) int(v int64) { a.b = strconv.AppendInt(a.b, v, 10) }

func (a *appender) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if a.err == nil {
			a.err = fmt.Errorf("ncgio: unsupported value: %v", f)
		}
		return
	}
	a.b = appendFloat(a.b, f)
}

func (a *appender) done() ([]byte, error) {
	if a.err != nil {
		return nil, a.err
	}
	return a.b, nil
}

// appendFloat writes a finite f by encoding/json's rule: the shortest
// decimal that parses back to f, in %f form, or in %e form below 1e-6 and
// from 1e21 on with a two-digit exponent's leading zero dropped (e-09 is
// written e-9).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// cell opens a record with the coordinates every line kind leads with.
func (a *appender) cell(c dynamics.Cell) {
	a.str(`{"alpha":`)
	a.float(c.Alpha)
	a.str(`,"k":`)
	a.int(int64(c.K))
	a.str(`,"seed":`)
	a.int(c.Seed)
}

// roundStatsSize is room for one roundStats record when pre-sizing a
// line: the keys are 170 bytes, and the fourteen values rarely reach 150.
const roundStatsSize = 320

func (a *appender) roundStats(rs *dynamics.RoundStats) {
	a.str(`{"Round":`)
	a.int(int64(rs.Round))
	a.str(`,"Moves":`)
	a.int(int64(rs.Moves))
	a.str(`,"Diameter":`)
	a.int(int64(rs.Diameter))
	a.str(`,"SocialCost":`)
	a.float(rs.SocialCost)
	a.str(`,"MaxDegree":`)
	a.int(int64(rs.MaxDegree))
	a.str(`,"AvgDegree":`)
	a.float(rs.AvgDegree)
	a.str(`,"MinBought":`)
	a.int(int64(rs.MinBought))
	a.str(`,"MaxBought":`)
	a.int(int64(rs.MaxBought))
	a.str(`,"AvgBought":`)
	a.float(rs.AvgBought)
	a.str(`,"MinViewSize":`)
	a.int(int64(rs.MinViewSize))
	a.str(`,"MaxViewSize":`)
	a.int(int64(rs.MaxViewSize))
	a.str(`,"AvgViewSize":`)
	a.float(rs.AvgViewSize)
	a.str(`,"Quality":`)
	a.float(rs.Quality)
	a.str(`,"Unfairness":`)
	a.float(rs.Unfairness)
	a.str(`}`)
}

// perRound writes a trajectory the way encoding/json writes a slice: null
// for nil, [] for empty.
func (a *appender) perRound(rounds []dynamics.RoundStats) {
	if rounds == nil {
		a.str(`null`)
		return
	}
	a.str(`[`)
	for i := range rounds {
		if i > 0 {
			a.str(`,`)
		}
		a.roundStats(&rounds[i])
	}
	a.str(`]`)
}

// state writes a strategy profile: the player count and the bought arcs
// in (buyer, target) order, null when nobody buys anything.
func (a *appender) state(s *game.State) {
	a.str(`{"n":`)
	a.int(int64(s.N()))
	a.str(`,"arcs":`)
	first := true
	for u := 0; u < s.N(); u++ {
		for _, v := range s.Strategy(u) {
			if first {
				a.str(`[[`)
				first = false
			} else {
				a.str(`,[`)
			}
			a.int(int64(u))
			a.str(`,`)
			a.int(int64(v))
			a.str(`]`)
		}
	}
	if first {
		a.str(`null}`)
	} else {
		a.str(`]}`)
	}
}

func (a *appender) cellResult(r *dynamics.CellResult) {
	a.cell(r.Cell)
	a.str(`,"status":"`)
	a.str(r.Result.Status.String())
	a.str(`","rounds":`)
	a.int(int64(r.Result.Rounds))
	a.str(`,"total_moves":`)
	a.int(int64(r.Result.TotalMoves))
	a.str(`,"final_stats":`)
	a.roundStats(&r.Result.FinalStats)
	if r.Result.Final != nil {
		a.str(`,"state":`)
		a.state(r.Result.Final)
	}
	a.str(`}`)
}

// scanner reads one record front to back. The first token that is not
// what the appender would have written there sets err, which sticks: every
// later call is a no-op returning zero, so a record's reader is straight-
// line code that checks once, at end.
type scanner struct {
	b   []byte
	i   int
	err error
}

func (s *scanner) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("ncgio: byte %d: %s", s.i, fmt.Sprintf(format, args...))
	}
}

// end is the record's verdict: the first refusal, or trailing bytes.
func (s *scanner) end() error {
	if s.err == nil && s.i != len(s.b) {
		s.fail("trailing bytes after the record")
	}
	return s.err
}

// lit consumes exactly want.
func (s *scanner) lit(want string) {
	if s.err != nil {
		return
	}
	if len(s.b)-s.i < len(want) || string(s.b[s.i:s.i+len(want)]) != want {
		s.fail("want %s", want)
		return
	}
	s.i += len(want)
}

// char is lit for one byte, the arc list's punctuation, without the call
// into the runtime's comparison.
func (s *scanner) char(c byte) {
	if s.err == nil && s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return
	}
	s.fail("want %c", c)
}

// peek reports whether the next byte is c, consuming nothing.
func (s *scanner) peek(c byte) bool {
	return s.err == nil && s.i < len(s.b) && s.b[s.i] == c
}

// int64 consumes a canonical integer: an optional minus, then 0 or digits
// with no leading zero (and no -0), in range.
func (s *scanner) int64() int64 {
	if s.err != nil {
		return 0
	}
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	// 19 digits cannot wrap a uint64, so v is exact when compared.
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	switch digits := i - start; {
	case digits == 0:
		s.fail("want an integer")
		return 0
	case b[start] == '0' && (digits > 1 || neg), digits > 19, v > limit:
		s.fail("integer %s is not canonical or out of range", b[s.i:i])
		return 0
	}
	s.i = i
	if neg {
		return -int64(v)
	}
	return int64(v)
}

// int is int64 narrowed to the platform's int.
func (s *scanner) int() int {
	v := s.int64()
	if int64(int(v)) != v {
		s.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// float consumes a number token and accepts it only when it is what
// appendFloat writes for the value it parses to.
func (s *scanner) float() float64 {
	if s.err != nil {
		return 0
	}
	i := s.i
	for ; i < len(s.b); i++ {
		if c := s.b[i]; c-'0' > 9 && c != '.' && c != '-' && c != '+' && c != 'e' {
			break
		}
	}
	tok := s.b[s.i:i]
	f, err := strconv.ParseFloat(string(tok), 64)
	var canon [32]byte
	if err != nil || !bytes.Equal(appendFloat(canon[:0], f), tok) {
		s.fail("number %q is not canonical", tok)
		return 0
	}
	s.i = i
	return f
}

// status consumes a status name and its closing quote (the opening one
// belongs to the key's literal).
func (s *scanner) status() dynamics.Status {
	if s.err != nil {
		return 0
	}
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n < 0 {
		s.fail("unterminated status")
		return 0
	}
	st, ok := dynamics.ParseStatus(string(s.b[s.i : s.i+n]))
	if !ok {
		s.fail("unknown status %q", s.b[s.i:s.i+n])
		return 0
	}
	s.i += n + 1
	return st
}

func (s *scanner) cell() (c dynamics.Cell) {
	s.lit(`{"alpha":`)
	c.Alpha = s.float()
	s.lit(`,"k":`)
	c.K = s.int()
	s.lit(`,"seed":`)
	c.Seed = s.int64()
	return c
}

func (s *scanner) roundStats(rs *dynamics.RoundStats) {
	s.lit(`{"Round":`)
	rs.Round = s.int()
	s.lit(`,"Moves":`)
	rs.Moves = s.int()
	s.lit(`,"Diameter":`)
	rs.Diameter = s.int()
	s.lit(`,"SocialCost":`)
	rs.SocialCost = s.float()
	s.lit(`,"MaxDegree":`)
	rs.MaxDegree = s.int()
	s.lit(`,"AvgDegree":`)
	rs.AvgDegree = s.float()
	s.lit(`,"MinBought":`)
	rs.MinBought = s.int()
	s.lit(`,"MaxBought":`)
	rs.MaxBought = s.int()
	s.lit(`,"AvgBought":`)
	rs.AvgBought = s.float()
	s.lit(`,"MinViewSize":`)
	rs.MinViewSize = s.int()
	s.lit(`,"MaxViewSize":`)
	rs.MaxViewSize = s.int()
	s.lit(`,"AvgViewSize":`)
	rs.AvgViewSize = s.float()
	s.lit(`,"Quality":`)
	rs.Quality = s.float()
	s.lit(`,"Unfairness":`)
	rs.Unfairness = s.float()
	s.lit(`}`)
}

// perRound inverts appender.perRound.
func (s *scanner) perRound() []dynamics.RoundStats {
	if s.peek('n') {
		s.lit(`null`)
		return nil
	}
	s.lit(`[`)
	rounds := []dynamics.RoundStats{}
	for more := !s.peek(']'); more && s.err == nil; more = s.peek(',') {
		if len(rounds) > 0 {
			s.lit(`,`)
		}
		var rs dynamics.RoundStats
		s.roundStats(&rs)
		rounds = append(rounds, rs)
	}
	s.lit(`]`)
	return rounds
}

// maxStatePlayers caps a decoded state's player count: a state costs
// memory in proportion to n however few bytes spell it, peers send the
// bytes, and the runtime treats the 32 GB a line naming n = 4e9 asks for
// as fatal. 100× the largest n a sweep spec may name.
const maxStatePlayers = 1 << 20

// state consumes a strategy profile, holding it to everything game.State
// requires: a bounded player count, arcs in range, no self-buy, and arcs
// strictly ascending in (buyer, target), which is the appender's order and
// leaves no room for a repeat. With build set it returns the profile as a
// game.State; without, it allocates nothing and returns nil.
func (s *scanner) state(build bool) *game.State {
	s.lit(`{"n":`)
	n := s.int()
	if n < 0 || n > maxStatePlayers {
		s.fail("player count %d outside [0, %d]", n, maxStatePlayers)
	}
	s.lit(`,"arcs":`)
	var st *game.State
	if build && s.err == nil {
		st = game.NewState(n)
	}
	if s.peek('n') {
		s.lit(`null}`)
	} else {
		s.char('[')
		for pu, pv := -1, -1; s.err == nil; s.char(',') {
			s.char('[')
			u := s.int()
			s.char(',')
			v := s.int()
			s.char(']')
			switch {
			case s.err != nil: // refused above
			case u < 0 || u >= n || v < 0 || v >= n:
				s.fail("arc (%d,%d) out of range [0,%d)", u, v, n)
			case u == v:
				s.fail("self-buy arc (%d,%d)", u, v)
			case u < pu || u == pu && v <= pv:
				s.fail("arc (%d,%d) does not ascend from (%d,%d)", u, v, pu, pv)
			case st != nil:
				st.Buy(u, v)
			}
			pu, pv = u, v
			if !s.peek(',') {
				break
			}
		}
		s.lit(`]}`)
	}
	if s.err != nil {
		return nil
	}
	return st
}

// cellResult consumes a cell-result record; build is state's.
func (s *scanner) cellResult(build bool) (r dynamics.CellResult) {
	r.Cell = s.cell()
	s.lit(`,"status":"`)
	r.Result.Status = s.status()
	s.lit(`,"rounds":`)
	r.Result.Rounds = s.int()
	s.lit(`,"total_moves":`)
	r.Result.TotalMoves = s.int()
	s.lit(`,"final_stats":`)
	s.roundStats(&r.Result.FinalStats)
	if s.peek(',') {
		s.lit(`,"state":`)
		r.Result.Final = s.state(build)
	}
	s.lit(`}`)
	return r
}
