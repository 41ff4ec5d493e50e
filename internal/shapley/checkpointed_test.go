package shapley

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"fairco2/internal/checkpoint"
)

// peakDemandGame builds the incremental demand-curve game used by the
// attribution paths: rectangular workloads, value = peak of the summed curve.
func peakDemandGame(rng *rand.Rand, n, slices int) Game {
	starts := make([]int, n)
	ends := make([]int, n)
	cores := make([]float64, n)
	for i := 0; i < n; i++ {
		starts[i] = rng.Intn(slices)
		ends[i] = starts[i] + 1 + rng.Intn(slices-starts[i])
		cores[i] = float64(1 + rng.Intn(64))
	}
	return func() (func(int), func(int), func() float64) {
		demand := make([]float64, slices)
		add := func(i int) {
			for t := starts[i]; t < ends[i]; t++ {
				demand[t] += cores[i]
			}
		}
		remove := func(i int) {
			for t := starts[i]; t < ends[i]; t++ {
				demand[t] -= cores[i]
			}
		}
		value := func() float64 {
			peak := 0.0
			for _, d := range demand {
				if d > peak {
					peak = d
				}
			}
			return peak
		}
		return add, remove, value
	}
}

func TestBuildTableCheckpointedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 9
	makeGame := peakDemandGame(rng, n, 8)
	serial, err := buildTable(n, makeGame, 1)
	if err != nil {
		t.Fatal(err)
	}
	ck := checkpoint.Spec{Dir: t.TempDir(), Every: 7}
	table, err := BuildGameTable(context.Background(), n, makeGame, 3, ck)
	if err != nil {
		t.Fatal(err)
	}
	equalSlices(t, table, serial, "BuildTableIncrementalCheckpointed")

	// A second run against the completed snapshot recomputes nothing.
	again, err := BuildGameTable(context.Background(), n, makeGame, 1, ck)
	if err != nil {
		t.Fatal(err)
	}
	equalSlices(t, again, serial, "fully-resumed table")
}

func TestBuildTableCheckpointedResumesAfterInterrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n = 8
	makeGame := peakDemandGame(rng, n, 10)
	serial, err := buildTable(n, makeGame, 1)
	if err != nil {
		t.Fatal(err)
	}

	ck := checkpoint.Spec{Dir: t.TempDir(), Every: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildGameTable(ctx, n, makeGame, 2, ck); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: %v", err)
	}
	table, err := BuildGameTable(context.Background(), n, makeGame, 2, ck)
	if err != nil {
		t.Fatal(err)
	}
	equalSlices(t, table, serial, "resumed table")
}

// TestBuildGameTableStopsOnCancel pins cancellation of the in-memory build:
// a pre-cancelled context fails before any block, and a cancel landing
// inside a block stops the serial build at the next block boundary.
func TestBuildGameTableStopsOnCancel(t *testing.T) {
	makeGame := peakDemandGame(rand.New(rand.NewSource(46)), 10, 6)
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		table, err := BuildGameTable(ctx, 10, makeGame, workers, checkpoint.Spec{})
		if !errors.Is(err, context.Canceled) || table != nil {
			t.Fatalf("workers=%d: pre-cancelled build returned %d entries, %v; want context.Canceled", workers, len(table), err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocks := 0
	cancelling := func() (func(int), func(int), func() float64) {
		blocks++
		cancel()
		return makeGame()
	}
	if _, err := BuildGameTable(ctx, 10, cancelling, 1, checkpoint.Spec{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel mid-build: %v, want context.Canceled", err)
	}
	if blocks != 1 {
		t.Fatalf("serial build enumerated %d blocks after cancellation, want 1", blocks)
	}
}

func TestBuildTableCheckpointedRejectsDifferentPlayerCount(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	makeGame := peakDemandGame(rng, 7, 6)
	ck := checkpoint.Spec{Dir: t.TempDir(), Every: 4}
	if _, err := BuildGameTable(context.Background(), 7, makeGame, 2, ck); err != nil {
		t.Fatal(err)
	}
	smaller := peakDemandGame(rng, 6, 6)
	if _, err := BuildGameTable(context.Background(), 6, smaller, 2, ck); !errors.Is(err, checkpoint.ErrStateMismatch) {
		t.Fatalf("resume with different n: %v, want ErrStateMismatch", err)
	}
}

func TestBuildTableCheckpointedDisabledSpecDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const n = 6
	makeGame := peakDemandGame(rng, n, 5)
	serial, err := buildTable(n, makeGame, 1)
	if err != nil {
		t.Fatal(err)
	}
	table, err := BuildGameTable(context.Background(), n, makeGame, 2, checkpoint.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	equalSlices(t, table, serial, "disabled-spec table")

	if _, err := BuildGameTable(context.Background(), 0, makeGame, 2, checkpoint.Spec{Dir: t.TempDir()}); !errors.Is(err, ErrNoPlayers) {
		t.Errorf("n=0: %v", err)
	}
	if _, err := BuildGameTable(context.Background(), 3, nil, 2, checkpoint.Spec{Dir: t.TempDir()}); !errors.Is(err, ErrNilGame) {
		t.Errorf("nil game: %v", err)
	}
}

func TestTableSweepRestoreCorruption(t *testing.T) {
	sweep := &tableSweep{n: 4, low: 0, done: make([]bool, 16), table: make([]float64, 16)}
	for i := range sweep.done {
		sweep.done[i] = i%2 == 0
		sweep.table[i] = float64(i)
	}
	payload, err := sweep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *tableSweep {
		return &tableSweep{n: 4, low: 0, done: make([]bool, 16), table: make([]float64, 16)}
	}
	if err := fresh().Restore(payload); err != nil {
		t.Fatalf("intact restore: %v", err)
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"short header", payload[:4], checkpoint.ErrCorruptCheckpoint},
		{"truncated block", payload[:len(payload)-3], checkpoint.ErrCorruptCheckpoint},
		{"trailing bytes", append(append([]byte(nil), payload...), 0), checkpoint.ErrCorruptCheckpoint},
	}
	for _, tc := range cases {
		if err := fresh().Restore(tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
	wrongN := &tableSweep{n: 5, low: 0, done: make([]bool, 32), table: make([]float64, 32)}
	if err := wrongN.Restore(payload); !errors.Is(err, checkpoint.ErrStateMismatch) {
		t.Errorf("wrong n: %v", err)
	}
}
