package shapley

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fairco2/internal/checkpoint"
)

// TestWorkerPanicIsolation pins the panic-isolation contract of the parallel
// engine: a panic inside a caller-supplied game function must not crash the
// process or deadlock the pool — every entry point returns a typed
// *WorkerPanicError (matchable as ErrWorkerPanic) carrying the panic value
// and the goroutine stack.
func TestWorkerPanicIsolation(t *testing.T) {
	panicGame := func(uint64) float64 { panic("game exploded") }
	newPanicGame := func() (func(int), func(int), func() float64) {
		noop := func(int) {}
		return noop, noop, func() float64 { panic("game exploded") }
	}
	newPanicMarginals := func() OrderedMarginals {
		return func(perm []int, out []float64) { panic("game exploded") }
	}

	for _, workers := range []int{1, 4} {
		cases := []struct {
			name string
			call func() ([]float64, error)
		}{
			{"BuildTableParallel", func() ([]float64, error) { return buildTable(6, setGame(panicGame), workers) }},
			{"BuildTableIncrementalParallel", func() ([]float64, error) {
				return buildTable(6, newPanicGame, workers)
			}},
			{"ExactParallel", func() ([]float64, error) { return exactParallel(6, panicGame, workers) }},
			{"MonteCarloParallel", func() ([]float64, error) { return MonteCarloParallel(6, panicGame, 64, 1, workers) }},
			{"SampledOrderedParallel", func() ([]float64, error) {
				return SampledOrderedParallel(6, newPanicMarginals, 64, 1, workers)
			}},
			{"BuildTableIncrementalCheckpointed", func() ([]float64, error) {
				return BuildGameTable(context.Background(), 6, newPanicGame, workers,
					checkpoint.Spec{Dir: t.TempDir(), Every: 1})
			}},
			{"DeltaTable.Apply", func() ([]float64, error) {
				dt, err := NewDeltaTable(6, setGame(func(m uint64) float64 { return float64(m) }), workers)
				if err != nil {
					return nil, err
				}
				if _, err := dt.Apply(1, newPanicGame, workers); err != nil {
					return nil, err
				}
				return dt.Table(), nil
			}},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				out, err := tc.call()
				if out != nil {
					t.Errorf("expected nil result, got %d values", len(out))
				}
				if !errors.Is(err, ErrWorkerPanic) {
					t.Fatalf("got %v, want ErrWorkerPanic", err)
				}
				var wp *WorkerPanicError
				if !errors.As(err, &wp) {
					t.Fatalf("error %v does not unwrap to *WorkerPanicError", err)
				}
				if wp.Value != "game exploded" {
					t.Errorf("panic value %v", wp.Value)
				}
				if len(wp.Stack) == 0 {
					t.Error("empty panic stack")
				}
				if !strings.Contains(err.Error(), "game exploded") {
					t.Errorf("message %q omits the panic value", err.Error())
				}
			})
		}
	}
}

// A panic mid-sweep must not poison a later, correct run on the same pool
// entry points (no shared state survives a panic).
func TestWorkerPanicDoesNotPoisonNextRun(t *testing.T) {
	calls := 0
	flaky := func(mask uint64) float64 {
		calls++
		if calls == 1 {
			panic("first call explodes")
		}
		return float64(mask)
	}
	if _, err := buildTable(4, setGame(flaky), 1); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("first run: %v", err)
	}
	good := func(mask uint64) float64 { return float64(mask) }
	if _, err := buildTable(4, setGame(good), 2); err != nil {
		t.Fatalf("second run: %v", err)
	}
}
