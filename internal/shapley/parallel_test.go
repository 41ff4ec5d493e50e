package shapley

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"fairco2/internal/checkpoint"
)

// The differential suite: every parallel estimator is checked against the
// serial core it wraps. Exact solvers must agree bit-for-bit; sampling
// solvers must agree bit-for-bit with a serial emulation of their sharding
// scheme (WorkerSeeds + shareSamples + weighted reduction), which pins the
// determinism contract rather than just a statistical property.

// randomPeaks returns n random integer-valued peaks — integer values keep
// every incremental float update exact, so serial and parallel table
// builders must agree to the last bit.
func randomPeaks(n int, rng *rand.Rand) []float64 {
	peaks := make([]float64, n)
	for i := range peaks {
		peaks[i] = float64(rng.Intn(1000))
	}
	return peaks
}

// setGame adapts a plain characteristic function to the incremental Game
// interface: the state is the coalition mask itself and value() evaluates v
// on it from scratch, so every enumeration order yields v's exact values.
func setGame(v SetFunc) Game {
	return func() (func(int), func(int), func() float64) {
		var mask uint64
		return func(i int) { mask |= 1 << uint(i) },
			func(i int) { mask &^= 1 << uint(i) },
			func() float64 { return v(mask) }
	}
}

// buildTable is BuildGameTable in memory with a background context.
func buildTable(n int, g Game, workers int) ([]float64, error) {
	return BuildGameTable(context.Background(), n, g, workers, checkpoint.Spec{})
}

func equalSlices(t *testing.T, got, want []float64, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", context, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: index %d: parallel %v != serial %v", context, i, got[i], want[i])
		}
	}
}

// TestExactParallelDifferential is the core differential test demanded by
// the engine's contract: 200 randomized games over n = 2..12 players, each
// checked with a varying worker count, asserting bitwise equality of
// BuildTable, ExactFromTable and the composed Exact against the serial
// solvers. Run under -race in CI.
func TestExactParallelDifferential(t *testing.T) {
	for seed := 0; seed < 200; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 2 + seed%11 // cycles 2..12
		workers := 1 + seed%8
		peaks := randomPeaks(n, rng)
		game := peakOf(peaks)

		serialTable, err := BuildTable(n, game)
		if err != nil {
			t.Fatal(err)
		}
		parallelTable, err := buildTable(n, setGame(game), workers)
		if err != nil {
			t.Fatal(err)
		}
		equalSlices(t, parallelTable, serialTable, "BuildTableParallel")

		// A second table with arbitrary float values exercises the solver
		// beyond monotone games.
		floatTable := make([]float64, 1<<uint(n))
		for i := range floatTable {
			floatTable[i] = rng.NormFloat64() * 100
		}
		serialPhi, err := ExactFromTable(n, floatTable, 1)
		if err != nil {
			t.Fatal(err)
		}
		parallelPhi, err := ExactFromTable(n, floatTable, workers)
		if err != nil {
			t.Fatal(err)
		}
		equalSlices(t, parallelPhi, serialPhi, "ExactFromTableParallel")

		serialExact, err := Exact(n, game)
		if err != nil {
			t.Fatal(err)
		}
		parallelExact, err := exactParallel(n, game, workers)
		if err != nil {
			t.Fatal(err)
		}
		equalSlices(t, parallelExact, serialExact, "ExactParallel")
	}
}

// TestBuildTableIncrementalParallelDifferential checks the gray-code block
// enumerator against the serial DFS builder on integer-valued demand-curve
// games (the attribution workload), where both are exact.
func TestBuildTableIncrementalParallelDifferential(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		n := 2 + seed%11
		workers := 1 + seed%5
		slices := 4 + rng.Intn(8)
		// Random integer rectangular demands, as in schedule attribution.
		starts := make([]int, n)
		ends := make([]int, n)
		cores := make([]float64, n)
		for i := 0; i < n; i++ {
			starts[i] = rng.Intn(slices)
			ends[i] = starts[i] + 1 + rng.Intn(slices-starts[i])
			cores[i] = float64(1 + rng.Intn(64))
		}
		makeGame := func() (func(int), func(int), func() float64) {
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
		serial, err := buildTable(n, makeGame, 1)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := buildTable(n, makeGame, workers)
		if err != nil {
			t.Fatal(err)
		}
		equalSlices(t, parallel, serial, "BuildTableIncrementalParallel")
	}
}

// exactParallel is the parallel exact pipeline: the blocked table build
// over v followed by the player-partitioned reduction.
func exactParallel(n int, v SetFunc, workers int) ([]float64, error) {
	table, err := buildTable(n, setGame(v), workers)
	if err != nil {
		return nil, err
	}
	return ExactFromTable(n, table, workers)
}

// emulateSharded reproduces the parallel sampling scheme with the serial
// estimators: per-worker seeds from WorkerSeeds, contiguous shares, and the
// weighted in-order reduction. Bitwise agreement with the parallel
// estimator proves the engine is exactly "the serial core, sharded".
func emulateSharded(n, samples, workers int, seed int64, run func(share int, rng *rand.Rand) ([]float64, error)) ([]float64, error) {
	if workers > samples {
		workers = samples
	}
	shares := shareSamples(samples, workers)
	seeds := WorkerSeeds(seed, workers)
	phi := make([]float64, n)
	for w := 0; w < workers; w++ {
		est, err := run(shares[w], rand.New(rand.NewSource(seeds[w])))
		if err != nil {
			return nil, err
		}
		weight := float64(shares[w]) / float64(samples)
		for i, v := range est {
			phi[i] += v * weight
		}
	}
	return phi, nil
}

func TestMonteCarloParallelMatchesSerialShards(t *testing.T) {
	for seed := 0; seed < 60; seed++ {
		rng := rand.New(rand.NewSource(int64(2000 + seed)))
		n := 2 + seed%11
		workers := 1 + seed%6
		samples := workers + rng.Intn(40)
		peaks := randomPeaks(n, rng)
		game := peakOf(peaks)

		got, err := MonteCarloParallel(n, game, samples, int64(seed), workers)
		if err != nil {
			t.Fatal(err)
		}
		want, err := emulateSharded(n, samples, workers, int64(seed),
			func(share int, rng *rand.Rand) ([]float64, error) {
				return MonteCarlo(n, game, share, rng)
			})
		if err != nil {
			t.Fatal(err)
		}
		equalSlices(t, got, want, "MonteCarloParallel")
	}
}

func TestSampledOrderedParallelMatchesSerialShards(t *testing.T) {
	for seed := 0; seed < 60; seed++ {
		rng := rand.New(rand.NewSource(int64(4000 + seed)))
		n := 2 + seed%11
		workers := 1 + seed%6
		samples := workers + rng.Intn(40)
		peaks := randomPeaks(n, rng)
		// An ordered game with per-instance scratch state, as attribution
		// uses: marginal = how much the player raises the running peak.
		newMarginals := func() OrderedMarginals {
			cur := 0.0
			return func(perm []int, out []float64) {
				cur = 0
				for _, p := range perm {
					if peaks[p] > cur {
						out[p] = peaks[p] - cur
						cur = peaks[p]
					} else {
						out[p] = 0
					}
				}
			}
		}

		got, err := SampledOrderedParallel(n, newMarginals, samples, int64(seed), workers)
		if err != nil {
			t.Fatal(err)
		}
		want, err := emulateSharded(n, samples, workers, int64(seed),
			func(share int, rng *rand.Rand) ([]float64, error) {
				return SampledOrdered(n, newMarginals(), share, rng)
			})
		if err != nil {
			t.Fatal(err)
		}
		equalSlices(t, got, want, "SampledOrderedParallel")
	}
}

// TestParallelSampledReproducible pins the determinism contract: a fixed
// (seed, workers) pair reproduces the estimate bit-for-bit.
func TestParallelSampledReproducible(t *testing.T) {
	peaks := randomPeaks(16, rand.New(rand.NewSource(99)))
	game := peakOf(peaks)
	for _, workers := range []int{1, 3, 8} {
		a, err := MonteCarloParallel(16, game, 500, 42, workers)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MonteCarloParallel(16, game, 500, 42, workers)
		if err != nil {
			t.Fatal(err)
		}
		equalSlices(t, a, b, "reproducibility")
	}
}

// TestMonteCarloParallelConvergesToExact is the statistical cross-check
// between the sharded estimator and the exact solver.
func TestMonteCarloParallelConvergesToExact(t *testing.T) {
	peaks := []float64{10, 4, 4, 7, 1, 0}
	n := len(peaks)
	exact, err := Exact(n, peakOf(peaks))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := MonteCarloParallel(n, peakOf(peaks), 20000, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		approx(t, plain[i], exact[i], 0.1, "parallel MC estimate")
	}
}

// TestParallelWorkerResolution covers the knob edge cases: auto (<= 0),
// more workers than work, and single-worker runs.
func TestParallelWorkerResolution(t *testing.T) {
	peaks := randomPeaks(4, rand.New(rand.NewSource(7)))
	game := peakOf(peaks)
	serial, err := Exact(4, game)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 0, 1, 64} {
		got, err := exactParallel(4, game, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		equalSlices(t, got, serial, "worker resolution")
	}
	// More workers than samples must clamp, not fail or starve.
	got, err := MonteCarloParallel(4, game, 3, 5, 16)
	if err != nil {
		t.Fatal(err)
	}
	want, err := emulateSharded(4, 3, 16, 5, func(share int, rng *rand.Rand) ([]float64, error) {
		return MonteCarlo(4, game, share, rng)
	})
	if err != nil {
		t.Fatal(err)
	}
	equalSlices(t, got, want, "worker clamping")
}

func TestWorkerSeeds(t *testing.T) {
	seeds := WorkerSeeds(1, 8)
	if len(seeds) != 8 {
		t.Fatalf("got %d seeds", len(seeds))
	}
	seen := map[int64]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("duplicate derived seed %d", s)
		}
		seen[s] = true
	}
	again := WorkerSeeds(1, 8)
	for i := range seeds {
		if seeds[i] != again[i] {
			t.Fatal("WorkerSeeds must be deterministic")
		}
	}
	// Prefix property: a shorter derivation is a prefix of a longer one, so
	// growing the worker count preserves earlier workers' streams.
	short := WorkerSeeds(1, 3)
	for i := range short {
		if short[i] != seeds[i] {
			t.Fatal("WorkerSeeds must be a prefix-stable stream")
		}
	}
	// Adjacent caller seeds must not produce overlapping worker seeds.
	other := WorkerSeeds(2, 8)
	for _, s := range other {
		if seen[s] {
			t.Fatalf("seed collision between adjacent caller seeds: %d", s)
		}
	}
	if WorkerSeeds(1, 0) != nil {
		t.Fatal("non-positive worker count must yield nil")
	}
}
