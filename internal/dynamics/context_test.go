package dynamics_test

// External test package: these tests exercise SweepContext together with
// the ncgio codec (which itself imports dynamics), checking the three
// determinism contracts the sweepd daemon builds on: worker-count
// invariance, in-order emission, and resume ≡ uninterrupted.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/gen"
	"repro/internal/ncgio"
)

func testGrid() []dynamics.Cell {
	return dynamics.Grid([]float64{0.5, 1, 2}, []int{2, 4, 1000}, 3)
}

func testFactory(n int) dynamics.Factory {
	return func(cell dynamics.Cell, rng *rand.Rand) *game.State {
		return game.FromGraphRandomOwners(gen.RandomTree(n, rng), rng)
	}
}

func marshalAll(t *testing.T, rs []dynamics.CellResult) [][]byte {
	t.Helper()
	out := make([][]byte, len(rs))
	for i, r := range rs {
		line, err := ncgio.MarshalCellResult(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = line
	}
	return out
}

// TestSweepContextWorkerInvariance is the GOMAXPROCS=1 vs many-workers
// determinism check: per-cell seeding must make the encoded results
// byte-identical for a serial pool and a heavily parallel one.
func TestSweepContextWorkerInvariance(t *testing.T) {
	cells := testGrid()
	cfg := dynamics.DefaultConfig(game.Max, 0, 0)
	serial, err := dynamics.SweepContext(context.Background(), cells, cfg, testFactory(14), 5,
		dynamics.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := dynamics.SweepContext(context.Background(), cells, cfg, testFactory(14), 5,
		dynamics.SweepOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, b := marshalAll(t, serial), marshalAll(t, parallel)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("cell %d differs between 1 and 8 workers:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestSweepContextScanCountsPerCell: each cell of a sweep carries its own
// exact MAX scan counts, equal to a lone Run of that cell, whether one
// worker's responder ran every cell or four shared them — a worker's
// reused Evaluator leaks no count from one cell into the next.
func TestSweepContextScanCountsPerCell(t *testing.T) {
	cells := testGrid()
	cfg := dynamics.DefaultConfig(game.Max, 0, 0)
	want := make([]dynamics.Result, len(cells))
	for i, c := range cells {
		lone := cfg
		lone.Alpha, lone.K = c.Alpha, c.K
		want[i] = dynamics.Run(dynamics.CellState(testFactory(14), c, 5), lone)
	}
	for _, workers := range []int{1, 4} {
		got, err := dynamics.SweepContext(context.Background(), cells, cfg, testFactory(14), 5,
			dynamics.SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		solves := int64(0)
		for i, r := range got {
			if r.Result.Scan != want[i].Scan || r.Result.Evaluations != want[i].Evaluations {
				t.Fatalf("%d workers, cell %+v: %d calls, scan %+v; a lone run makes %d calls, scan %+v",
					workers, r.Cell, r.Result.Evaluations, r.Result.Scan, want[i].Evaluations, want[i].Scan)
			}
			solves += r.Result.Scan.Solves
		}
		if solves == 0 {
			t.Fatal("no cell of the grid ran a dominating-set solve; the test pins nothing")
		}
	}
}

func TestSweepContextEmitsInCanonicalOrder(t *testing.T) {
	cells := testGrid()
	cfg := dynamics.DefaultConfig(game.Max, 0, 0)
	next := 0
	_, err := dynamics.SweepContext(context.Background(), cells, cfg, testFactory(12), 3,
		dynamics.SweepOptions{
			Workers: 6,
			OnResult: func(i int, r dynamics.CellResult, reused bool) error {
				if i != next {
					t.Fatalf("emission out of order: got index %d, want %d", i, next)
				}
				if reused {
					t.Fatalf("cell %d marked reused without a Have hook", i)
				}
				if r.Cell != cells[i] {
					t.Fatalf("cell %d payload mismatch", i)
				}
				next++
				return nil
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if next != len(cells) {
		t.Fatalf("emitted %d results, want %d", next, len(cells))
	}
}

// TestSweepContextResumeMatchesUninterrupted aborts a sweep partway
// through (as a crash would), then resumes via Have from the delivered
// prefix, emulating the sweepd checkpoint protocol: the concatenation of
// the prefix lines and the resumed run's new lines must be byte-identical
// to an uninterrupted run's output.
func TestSweepContextResumeMatchesUninterrupted(t *testing.T) {
	cells := testGrid()
	cfg := dynamics.DefaultConfig(game.Max, 0, 0)
	full, err := dynamics.SweepContext(context.Background(), cells, cfg, testFactory(14), 11,
		dynamics.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fullLines := marshalAll(t, full)

	const cut = 7
	errKilled := errors.New("simulated crash")
	checkpoint := map[dynamics.Cell]dynamics.Result{}
	var prefix [][]byte
	_, err = dynamics.SweepContext(context.Background(), cells, cfg, testFactory(14), 11,
		dynamics.SweepOptions{
			Workers: 5,
			OnResult: func(i int, r dynamics.CellResult, reused bool) error {
				if len(prefix) == cut {
					return errKilled
				}
				line, merr := ncgio.MarshalCellResult(r)
				if merr != nil {
					return merr
				}
				prefix = append(prefix, line)
				checkpoint[r.Cell] = r.Result
				return nil
			},
		})
	if !errors.Is(err, errKilled) {
		t.Fatalf("interrupted sweep error = %v, want simulated crash", err)
	}
	if len(prefix) != cut {
		t.Fatalf("checkpoint has %d lines, want %d", len(prefix), cut)
	}

	resumed := append([][]byte(nil), prefix...)
	_, err = dynamics.SweepContext(context.Background(), cells, cfg, testFactory(14), 11,
		dynamics.SweepOptions{
			Workers: 3,
			Have: func(_ int, c dynamics.Cell) (dynamics.Result, bool) {
				r, ok := checkpoint[c]
				return r, ok
			},
			OnResult: func(i int, r dynamics.CellResult, reused bool) error {
				if reused {
					return nil // already checkpointed
				}
				line, merr := ncgio.MarshalCellResult(r)
				if merr != nil {
					return merr
				}
				resumed = append(resumed, line)
				return nil
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != len(fullLines) {
		t.Fatalf("resumed output has %d lines, want %d", len(resumed), len(fullLines))
	}
	for i := range fullLines {
		if !bytes.Equal(resumed[i], fullLines[i]) {
			t.Fatalf("line %d differs after resume:\n%s\n%s", i, resumed[i], fullLines[i])
		}
	}
}

// TestSweepContextHaveByPosition pins the contract a caller that answers
// Have by position relies on: one call per cell, in slice order, i the
// cell's position in cells — the index OnResult later reports for it — and
// all of them before the first delivery.
func TestSweepContextHaveByPosition(t *testing.T) {
	// The same cell twice: only the index tells the two positions apart.
	cells := append(testGrid(), testGrid()[0])
	var asked []int
	delivered := 0
	_, err := dynamics.SweepContext(context.Background(), cells, dynamics.DefaultConfig(game.Max, 0, 0), testFactory(10), 4,
		dynamics.SweepOptions{
			Workers: 3,
			Have: func(i int, c dynamics.Cell) (dynamics.Result, bool) {
				if delivered > 0 {
					t.Errorf("Have(%d) called after %d deliveries", i, delivered)
				}
				if c != cells[i] {
					t.Errorf("Have(%d) got cell %+v, cells[%d] is %+v", i, c, i, cells[i])
				}
				asked = append(asked, i)
				return fakeResult(1000 + i), i%3 == 0
			},
			OnResult: func(i int, r dynamics.CellResult, reused bool) error {
				delivered++
				if reused != (i%3 == 0) || (reused && r.Result.Rounds != 1000+i) {
					t.Errorf("cell %d: reused=%v rounds=%d, want Have's answer for position %d", i, reused, r.Result.Rounds, i)
				}
				return nil
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(asked) != len(cells) || delivered != len(cells) {
		t.Fatalf("Have called %d times, %d deliveries, for %d cells", len(asked), delivered, len(cells))
	}
	for want, got := range asked {
		if got != want {
			t.Fatalf("Have call %d was for position %d", want, got)
		}
	}
}

func TestSweepContextGateAndDiscard(t *testing.T) {
	cells := testGrid()
	cfg := dynamics.DefaultConfig(game.Max, 0, 0)
	gate := make(chan struct{}, 2)
	gate <- struct{}{}
	gate <- struct{}{}
	var got []dynamics.CellResult
	out, err := dynamics.SweepContext(context.Background(), cells, cfg, testFactory(12), 3,
		dynamics.SweepOptions{
			Workers: 6, // six goroutines contending for two tokens
			Gate:    gate,
			OnResult: func(i int, r dynamics.CellResult, reused bool) error {
				got = append(got, r)
				return nil
			},
			DiscardResults: true,
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cells) {
		t.Fatalf("emitted %d results, want %d", len(got), len(cells))
	}
	if len(gate) != 2 {
		t.Fatalf("gate tokens leaked: %d of 2 returned", len(gate))
	}
	for i, r := range out {
		if r.Result.Final != nil {
			t.Fatalf("result %d not discarded after emission", i)
		}
	}
	// The streamed results must match a plain sweep.
	plain := dynamics.Sweep(cells, cfg, testFactory(12), 3)
	for i := range plain {
		if got[i].Result.Final.Fingerprint() != plain[i].Result.Final.Fingerprint() {
			t.Fatalf("gated sweep cell %d diverges from plain sweep", i)
		}
	}
}

func TestSweepContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := dynamics.SweepContext(ctx, testGrid(), dynamics.DefaultConfig(game.Max, 0, 0),
		testFactory(12), 1, dynamics.SweepOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := game.FromGraphLowOwners(gen.Path(10))
	_, err := dynamics.RunContext(ctx, s, dynamics.DefaultConfig(game.Max, 0.5, 1000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
