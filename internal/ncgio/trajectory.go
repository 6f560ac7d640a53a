package ncgio

import "repro/internal/dynamics"

// TrajectoryRecord is the wire form of one cell's per-round trajectory:
// the cell coordinates plus the full RoundStats sequence the dynamics
// collected. It lives in an opt-in sidecar file (trajectory.jsonl) next
// to a sweep's checkpoint, so the main CellResult codec stays small —
// convergence studies that need full trajectories read the sidecar, and
// everyone else never pays for it. A peer lease of a trajectory spec
// streams each cell's sidecar line before its result line, the order the
// leader appends them in.
type TrajectoryRecord struct {
	Alpha    float64
	K        int
	Seed     int64
	PerRound []dynamics.RoundStats
}

// Cell reassembles the record's cell coordinates.
func (tr TrajectoryRecord) Cell() dynamics.Cell {
	return dynamics.Cell{Alpha: tr.Alpha, K: tr.K, Seed: tr.Seed}
}

// MarshalTrajectory returns the canonical one-line JSON encoding of one
// cell's trajectory (without a trailing newline). Encoding is
// deterministic, same contract as MarshalCellResult.
func MarshalTrajectory(c dynamics.Cell, perRound []dynamics.RoundStats) ([]byte, error) {
	a := appender{b: make([]byte, 0, 64+roundStatsSize*len(perRound))}
	a.cell(c)
	a.str(`,"per_round":`)
	a.perRound(perRound)
	a.str(`}`)
	return a.done()
}

// UnmarshalTrajectory inverts MarshalTrajectory, and accepts nothing else.
func UnmarshalTrajectory(line []byte) (TrajectoryRecord, error) {
	s := scanner{b: line}
	c := s.cell()
	s.lit(`,"per_round":`)
	perRound := s.perRound()
	s.lit(`}`)
	if err := s.end(); err != nil {
		return TrajectoryRecord{}, err
	}
	return TrajectoryRecord{Alpha: c.Alpha, K: c.K, Seed: c.Seed, PerRound: perRound}, nil
}
