package dynamics_test

// Tests for the pluggable Executor seam: SweepContext must hand executors
// exactly the unresolved cells, sequence their (arbitrarily ordered)
// deliveries back into canonical order, and treat a short delivery as an
// error instead of a silently truncated grid.

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dynamics"
	"repro/internal/game"
)

// fakeExecutor records the request it received and replays canned results
// in a fixed (possibly out-of-order) sequence.
type fakeExecutor struct {
	mu      sync.Mutex
	reqs    []dynamics.ExecRequest
	deliver func(req dynamics.ExecRequest, out chan<- dynamics.IndexedResult)
}

func (f *fakeExecutor) Execute(ctx context.Context, req dynamics.ExecRequest) <-chan dynamics.IndexedResult {
	f.mu.Lock()
	f.reqs = append(f.reqs, req)
	f.mu.Unlock()
	out := make(chan dynamics.IndexedResult)
	go func() {
		defer close(out)
		if f.deliver != nil {
			f.deliver(req, out)
		}
	}()
	return out
}

func fakeResult(rounds int) dynamics.Result {
	return dynamics.Result{Status: dynamics.Converged, Rounds: rounds}
}

func TestSweepContextRoutesTodoThroughExecutor(t *testing.T) {
	cells := testGrid()
	exec := &fakeExecutor{
		deliver: func(req dynamics.ExecRequest, out chan<- dynamics.IndexedResult) {
			// Deliver in reverse order: the sequencer must still emit
			// canonically.
			for j := len(req.Todo) - 1; j >= 0; j-- {
				i := req.Todo[j]
				out <- dynamics.IndexedResult{Index: i, Result: fakeResult(i + 1)}
			}
		},
	}
	// Every third cell is resolved by Have and must not reach the executor.
	have := func(_ int, c dynamics.Cell) (dynamics.Result, bool) {
		for i, cc := range cells {
			if cc == c {
				if i%3 == 0 {
					return fakeResult(1000 + i), true
				}
				return dynamics.Result{}, false
			}
		}
		return dynamics.Result{}, false
	}
	var emitted []int
	var reusedIdx []int
	out, err := dynamics.SweepContext(context.Background(), cells, dynamics.Config{NewResponder: dynamics.NewMaxResponder}, testFactory(8), 1,
		dynamics.SweepOptions{
			Executor: exec,
			Have:     have,
			OnResult: func(i int, r dynamics.CellResult, reused bool) error {
				emitted = append(emitted, i)
				if reused {
					reusedIdx = append(reusedIdx, i)
				}
				return nil
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(exec.reqs) != 1 {
		t.Fatalf("executor invoked %d times, want 1", len(exec.reqs))
	}
	req := exec.reqs[0]
	wantTodo := 0
	for i := range cells {
		if i%3 != 0 {
			wantTodo++
		}
	}
	if len(req.Todo) != wantTodo {
		t.Fatalf("executor saw %d todo cells, want %d", len(req.Todo), wantTodo)
	}
	for _, i := range req.Todo {
		if i%3 == 0 {
			t.Fatalf("cell %d was resolved by Have but still reached the executor", i)
		}
	}
	for i := range cells {
		if emitted[i] != i {
			t.Fatalf("emission order broken at %d: got %v", i, emitted[:i+1])
		}
		wantRounds := i + 1
		if i%3 == 0 {
			wantRounds = 1000 + i
		}
		if out[i].Result.Rounds != wantRounds {
			t.Fatalf("cell %d rounds = %d, want %d", i, out[i].Result.Rounds, wantRounds)
		}
	}
	if len(reusedIdx) != len(cells)-wantTodo {
		t.Fatalf("%d cells marked reused, want %d", len(reusedIdx), len(cells)-wantTodo)
	}
}

func TestSweepContextExecutorShortDeliveryIsAnError(t *testing.T) {
	cells := testGrid()
	exec := &fakeExecutor{
		deliver: func(req dynamics.ExecRequest, out chan<- dynamics.IndexedResult) {
			for _, i := range req.Todo[:len(req.Todo)/2] {
				out <- dynamics.IndexedResult{Index: i, Result: fakeResult(1)}
			}
			// Close without delivering the rest and without a ctx error.
		},
	}
	_, err := dynamics.SweepContext(context.Background(), cells, dynamics.Config{NewResponder: dynamics.NewMaxResponder}, testFactory(8), 1,
		dynamics.SweepOptions{Executor: exec})
	if err == nil || !strings.Contains(err.Error(), "delivered") {
		t.Fatalf("err = %v, want short-delivery error", err)
	}
}

func TestSweepContextIgnoresOutOfRangeIndices(t *testing.T) {
	cells := testGrid()
	exec := &fakeExecutor{
		deliver: func(req dynamics.ExecRequest, out chan<- dynamics.IndexedResult) {
			out <- dynamics.IndexedResult{Index: -1}
			out <- dynamics.IndexedResult{Index: len(req.Cells) + 7}
			for _, i := range req.Todo {
				out <- dynamics.IndexedResult{Index: i, Result: fakeResult(1)}
			}
		},
	}
	_, err := dynamics.SweepContext(context.Background(), cells, dynamics.Config{NewResponder: dynamics.NewMaxResponder}, testFactory(8), 1,
		dynamics.SweepOptions{Executor: exec})
	if err != nil {
		t.Fatalf("out-of-range indices must be dropped, got error %v", err)
	}
}

// TestLocalExecutorObserve checks the latency hook fires once per
// computed cell with a positive duration, and never for reused cells.
func TestLocalExecutorObserve(t *testing.T) {
	cells := testGrid()
	cfg := dynamics.DefaultConfig(game.Max, 0, 0)
	var mu sync.Mutex
	seen := map[int]time.Duration{}
	_, err := dynamics.SweepContext(context.Background(), cells, cfg, testFactory(10), 2,
		dynamics.SweepOptions{
			Workers: 4,
			Have: func(_ int, c dynamics.Cell) (dynamics.Result, bool) {
				if c == cells[0] {
					return fakeResult(1), true
				}
				return dynamics.Result{}, false
			},
			Observe: func(i int, d time.Duration) {
				mu.Lock()
				seen[i] = d
				mu.Unlock()
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(cells)-1 {
		t.Fatalf("observed %d cells, want %d", len(seen), len(cells)-1)
	}
	if _, ok := seen[0]; ok {
		t.Fatal("reused cell 0 was observed")
	}
	for i, d := range seen {
		if d < 0 {
			t.Fatalf("cell %d observed negative duration %v", i, d)
		}
	}
}

// TestLocalExecutorMatchesSweep pins the refactor: the extracted
// LocalExecutor routed through SweepContext must reproduce plain Sweep
// exactly.
func TestLocalExecutorMatchesSweep(t *testing.T) {
	cells := testGrid()
	cfg := dynamics.DefaultConfig(game.Max, 0, 0)
	plain := dynamics.Sweep(cells, cfg, testFactory(12), 9)
	viaExec, err := dynamics.SweepContext(context.Background(), cells, cfg, testFactory(12), 9,
		dynamics.SweepOptions{Executor: dynamics.LocalExecutor{}, Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].Result.Final.Fingerprint() != viaExec[i].Result.Final.Fingerprint() {
			t.Fatalf("cell %d diverges between Sweep and explicit LocalExecutor", i)
		}
	}
}
