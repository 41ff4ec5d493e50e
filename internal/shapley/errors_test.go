package shapley

import (
	"errors"
	"math/rand"
	"testing"
)

// Table-driven coverage of every estimator's argument validation: each bad
// call must return (not panic) the documented sentinel, matchable with
// errors.Is. This pins the "typed error instead of panic" contract for
// samples < 1, nil rngs, nil games and out-of-range player counts, across
// both the serial core and the parallel engine.
func TestTypedErrorPaths(t *testing.T) {
	game := func(uint64) float64 { return 0 }
	marginals := func(perm []int, out []float64) {}
	newGame := func() (func(int), func(int), func() float64) {
		noop := func(int) {}
		return noop, noop, func() float64 { return 0 }
	}
	newMarginals := func() OrderedMarginals { return marginals }
	rng := rand.New(rand.NewSource(1))

	cases := []struct {
		name string
		call func() ([]float64, error)
		want error
	}{
		{"Exact/no players", func() ([]float64, error) { return Exact(0, game) }, ErrNoPlayers},
		{"Exact/too many players", func() ([]float64, error) { return Exact(MaxExactPlayers+1, game) }, ErrTooManyExactPlayers},
		{"BuildTable/nil game", func() ([]float64, error) { return BuildTable(3, nil) }, ErrNilGame},
		{"BuildTableIncremental/no players", func() ([]float64, error) { return buildTable(0, nil, 1) }, ErrNoPlayers},
		{"BuildTableIncremental/nil game", func() ([]float64, error) { return buildTable(3, nil, 1) }, ErrNilGame},
		{"ExactFromTable/table size", func() ([]float64, error) { return ExactFromTable(3, make([]float64, 7), 1) }, ErrTableSize},
		{"MonteCarlo/no players", func() ([]float64, error) { return MonteCarlo(0, game, 1, rng) }, ErrNoPlayers},
		{"MonteCarlo/too many players", func() ([]float64, error) { return MonteCarlo(64, game, 1, rng) }, ErrTooManyPlayers},
		{"MonteCarlo/no samples", func() ([]float64, error) { return MonteCarlo(2, game, 0, rng) }, ErrTooFewSamples},
		{"MonteCarlo/negative samples", func() ([]float64, error) { return MonteCarlo(2, game, -5, rng) }, ErrTooFewSamples},
		{"MonteCarlo/nil game", func() ([]float64, error) { return MonteCarlo(2, nil, 1, rng) }, ErrNilGame},
		{"MonteCarlo/nil rng", func() ([]float64, error) { return MonteCarlo(2, game, 1, nil) }, ErrNilRNG},
		{"MonteCarloAntithetic/odd samples", func() ([]float64, error) { return MonteCarloAntithetic(2, game, 3, rng) }, ErrOddAntitheticSamples},
		{"MonteCarloAntithetic/zero samples", func() ([]float64, error) { return MonteCarloAntithetic(2, game, 0, rng) }, ErrOddAntitheticSamples},
		{"MonteCarloAntithetic/nil game", func() ([]float64, error) { return MonteCarloAntithetic(2, nil, 2, rng) }, ErrNilGame},
		{"MonteCarloAntithetic/nil rng", func() ([]float64, error) { return MonteCarloAntithetic(2, game, 2, nil) }, ErrNilRNG},
		{"ExactOrdered/no players", func() ([]float64, error) { return ExactOrdered(0, marginals) }, ErrNoPlayers},
		{"ExactOrdered/too many players", func() ([]float64, error) { return ExactOrdered(MaxExactOrderedPlayers+1, marginals) }, ErrTooManyOrderedPlayers},
		{"ExactOrdered/nil marginals", func() ([]float64, error) { return ExactOrdered(3, nil) }, ErrNilMarginals},
		{"SampledOrdered/no players", func() ([]float64, error) { return SampledOrdered(0, marginals, 1, rng) }, ErrNoPlayers},
		{"SampledOrdered/no samples", func() ([]float64, error) { return SampledOrdered(2, marginals, 0, rng) }, ErrTooFewSamples},
		{"SampledOrdered/nil marginals", func() ([]float64, error) { return SampledOrdered(2, nil, 1, rng) }, ErrNilMarginals},
		{"SampledOrdered/nil rng", func() ([]float64, error) { return SampledOrdered(2, marginals, 1, nil) }, ErrNilRNG},

		{"BuildTableParallel/no players", func() ([]float64, error) { return buildTable(0, setGame(game), 2) }, ErrNoPlayers},
		{"BuildTableParallel/nil game", func() ([]float64, error) { return buildTable(3, nil, 2) }, ErrNilGame},
		{"BuildTableIncrementalParallel/nil factory", func() ([]float64, error) { return buildTable(3, nil, 2) }, ErrNilGame},
		{"BuildTableIncrementalParallel/nil triple", func() ([]float64, error) {
			return buildTable(3, func() (func(int), func(int), func() float64) { return nil, nil, nil }, 2)
		}, ErrNilGame},
		{"ExactParallel/too many players", func() ([]float64, error) { return exactParallel(MaxExactPlayers+1, game, 2) }, ErrTooManyExactPlayers},
		{"ExactFromTableParallel/table size", func() ([]float64, error) { return ExactFromTable(3, make([]float64, 9), 2) }, ErrTableSize},
		{"MonteCarloParallel/no players", func() ([]float64, error) { return MonteCarloParallel(0, game, 1, 1, 2) }, ErrNoPlayers},
		{"MonteCarloParallel/too many players", func() ([]float64, error) { return MonteCarloParallel(64, game, 1, 1, 2) }, ErrTooManyPlayers},
		{"MonteCarloParallel/no samples", func() ([]float64, error) { return MonteCarloParallel(2, game, 0, 1, 2) }, ErrTooFewSamples},
		{"MonteCarloParallel/nil game", func() ([]float64, error) { return MonteCarloParallel(2, nil, 1, 1, 2) }, ErrNilGame},
		{"SampledOrderedParallel/no players", func() ([]float64, error) { return SampledOrderedParallel(0, newMarginals, 1, 1, 2) }, ErrNoPlayers},
		{"SampledOrderedParallel/no samples", func() ([]float64, error) { return SampledOrderedParallel(2, newMarginals, 0, 1, 2) }, ErrTooFewSamples},
		{"SampledOrderedParallel/nil factory", func() ([]float64, error) { return SampledOrderedParallel(2, nil, 1, 1, 2) }, ErrNilMarginals},
		{"SampledOrderedParallel/nil marginals", func() ([]float64, error) {
			return SampledOrderedParallel(2, func() OrderedMarginals { return nil }, 1, 1, 2)
		}, ErrNilMarginals},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.call()
			if out != nil {
				t.Errorf("expected nil result, got %v", out)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("got error %v, want %v", err, tc.want)
			}
		})
	}

	// Valid calls must NOT hit the sentinels (guards against inverted
	// conditions in the table above).
	if _, err := MonteCarlo(2, game, 1, rng); err != nil {
		t.Errorf("minimal valid MonteCarlo call failed: %v", err)
	}
	if _, err := buildTable(2, newGame, 1); err != nil {
		t.Errorf("minimal valid incremental parallel call failed: %v", err)
	}
}

// TestPeakGameTypedErrors covers the peak-game validation separately (its
// negative-peak errors carry instance detail, not a shared sentinel).
func TestPeakGameTypedErrors(t *testing.T) {
	if _, err := PeakGame(nil); !errors.Is(err, ErrNoPlayers) {
		t.Errorf("empty peak game: %v", err)
	}
	if _, err := PeakGame([]float64{1, -1}); err == nil {
		t.Error("negative peak must error")
	}
}
