package ncgio

import "repro/internal/dynamics"

// TrajectoryRecord is the wire form of one cell's per-round trajectory:
// the cell coordinates plus the full RoundStats sequence the dynamics
// collected. It lives in an opt-in sidecar file (trajectory.jsonl) next
// to a sweep's checkpoint, so the main CellResult codec stays small —
// convergence studies that need full trajectories read the sidecar, and
// everyone else never pays for it.
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

// MarshalLeaseRecord wraps a canonical CellResult line (as produced by
// MarshalCellResult) together with its per-round trajectory into one lease
// stream record (without a trailing newline): the wire form of one cell on
// a peer-lease stream when the spec collects trajectories. The line —
// exactly the bytes the leader will checkpoint — goes under "result", the
// per-round stats the checkpoint codec intentionally drops under
// "per_round", left out when there are none. Plain leases stream bare
// CellResult lines; this envelope exists so trajectory sweeps can shard
// without per_round ever entering checkpoint bytes. Encoding is
// deterministic, same contract as MarshalCellResult.
func MarshalLeaseRecord(resultLine []byte, perRound []dynamics.RoundStats) ([]byte, error) {
	a := appender{b: make([]byte, 0, 64+len(resultLine)+roundStatsSize*len(perRound))}
	a.str(`{"result":`)
	a.b = append(a.b, resultLine...)
	if len(perRound) > 0 {
		a.str(`,"per_round":`)
		a.perRound(perRound)
	}
	a.str(`}`)
	return a.done()
}

// UnmarshalLeaseRecord inverts MarshalLeaseRecord: the embedded result is
// fully decoded and the trajectory is reattached to Result.PerRound, so
// the leader sees exactly what an in-process worker would have delivered.
func UnmarshalLeaseRecord(line []byte) (dynamics.CellResult, error) {
	s := scanner{b: line}
	s.lit(`{"result":`)
	r := s.cellResult(true)
	if s.peek(',') {
		s.lit(`,"per_round":`)
		if r.Result.PerRound = s.perRound(); len(r.Result.PerRound) == 0 {
			s.fail("empty per_round is written by leaving it out")
		}
	}
	s.lit(`}`)
	if err := s.end(); err != nil {
		return dynamics.CellResult{}, err
	}
	return r, nil
}
