// Package shapley implements the cooperative-game machinery at the heart of
// Fair-CO2 (§4): exact Shapley values by coalition enumeration, Monte Carlo
// permutation sampling for large games, ordered (arrival-order) games for
// colocation attribution, and the closed-form solution for peak/max games
// that makes Temporal Shapley polynomial (§5.1, Eq. 7 — which reduces to
// the classic airport-game formula).
package shapley

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
)

// MaxExactPlayers bounds exact coalition enumeration: the table of
// characteristic-function values has 2^n entries (8 bytes each), so 24
// players already costs 128 MiB and O(2^n * n) time. The paper caps its
// ground-truth runs at 22 workloads for the same reason.
const MaxExactPlayers = 24

// SetFunc is a characteristic function over coalitions encoded as bitmasks:
// bit i set means player i is in the coalition. SetFunc(0) is the value of
// the empty coalition.
type SetFunc func(mask uint64) float64

// Exact computes the exact Shapley value of every player by enumerating all
// 2^n coalitions. v is called exactly once per coalition.
func Exact(n int, v SetFunc) ([]float64, error) {
	table, err := BuildTable(n, v)
	if err != nil {
		return nil, err
	}
	return ExactFromTable(n, table, 1)
}

// BuildTable evaluates v over all 2^n coalitions into a dense table indexed
// by bitmask, one plain call per mask in ascending order. It is the
// reference oracle the blocked builder (BuildGameTable) is tested against.
func BuildTable(n int, v SetFunc) ([]float64, error) {
	if err := checkExactN(n); err != nil {
		return nil, err
	}
	if v == nil {
		return nil, ErrNilGame
	}
	table := make([]float64, 1<<uint(n))
	for mask := range table {
		table[mask] = v(uint64(mask))
	}
	metricExactCoalitions.Add(float64(len(table)))
	return table, nil
}

// MonteCarlo estimates Shapley values by sampling random permutations and
// averaging marginal contributions along each arrival order. The estimator
// is unbiased and efficient (marginals along one permutation telescope to
// v(N) - v(empty)).
func MonteCarlo(n int, v SetFunc, samples int, rng *rand.Rand) ([]float64, error) {
	if err := checkSampling(n, samples); err != nil {
		return nil, err
	}
	if v == nil {
		return nil, ErrNilGame
	}
	if rng == nil {
		return nil, ErrNilRNG
	}
	metricSamples.With("monte-carlo").Add(float64(samples))
	phi := make([]float64, n)
	perm := make([]int, n)
	for s := 0; s < samples; s++ {
		identityPerm(perm)
		shuffle(perm, rng)
		mask := uint64(0)
		prev := v(0)
		for _, p := range perm {
			mask |= 1 << uint(p)
			cur := v(mask)
			phi[p] += cur - prev
			prev = cur
		}
	}
	inv := 1 / float64(samples)
	for i := range phi {
		phi[i] *= inv
	}
	return phi, nil
}

func identityPerm(perm []int) {
	for i := range perm {
		perm[i] = i
	}
}

func shuffle(perm []int, rng *rand.Rand) {
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
}

func checkExactN(n int) error {
	if n < 1 {
		return ErrNoPlayers
	}
	if n > MaxExactPlayers {
		return fmt.Errorf("shapley: exact enumeration limited to %d players (got %d), use MonteCarlo: %w", MaxExactPlayers, n, ErrTooManyExactPlayers)
	}
	return nil
}

// binomial returns C(n, k) as a float64.
func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// PeakGame returns the exact Shapley values of the peak (max) game
// v(S) = max_{i in S} peaks[i] with non-negative peaks, in O(n log n).
// This is Eq. (7) of the paper in its classic airport-game form
// (Littlechild & Owen): sorting the peaks ascending c_1 <= ... <= c_n,
//
//	phi_(k) = sum_{j=1..k} (c_j - c_{j-1}) / (n - j + 1),   c_0 = 0.
//
// Each increment of peak height is shared equally by every player tall
// enough to need it.
func PeakGame(peaks []float64) ([]float64, error) {
	n := len(peaks)
	if n == 0 {
		return nil, ErrNoPlayers
	}
	phi := make([]float64, n)
	idx := make([]int, n)
	if err := PeakGameInto(peaks, phi, idx); err != nil {
		return nil, err
	}
	return phi, nil
}

// insertionSortMax bounds the player count PeakGameInto sorts with its
// allocation-free insertion sort; larger games fall back to sort.Slice
// (which allocates its closure but keeps the O(n log n) bound).
const insertionSortMax = 64

// PeakGameInto is PeakGame writing into caller-provided scratch: phi
// (length n) receives the values, idx (length n) is ordering scratch. For
// n <= 64 players it performs no heap allocation. The result is bit-for-bit
// identical to PeakGame's even though the sorts order ties differently:
// tied peaks contribute zero-height increments to the running accumulator,
// so every ascending order yields the same phi.
func PeakGameInto(peaks, phi []float64, idx []int) error {
	n := len(peaks)
	if n == 0 {
		return ErrNoPlayers
	}
	if len(phi) != n || len(idx) != n {
		return fmt.Errorf("shapley: phi/index scratch of %d/%d entries, want %d: %w", len(phi), len(idx), n, ErrScratchSize)
	}
	for i := range idx {
		idx[i] = i
	}
	for i, p := range peaks {
		if p < 0 {
			return fmt.Errorf("shapley: peak game requires non-negative peaks, player %d has %v", i, p)
		}
	}
	if n <= insertionSortMax {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && peaks[idx[j]] < peaks[idx[j-1]]; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
	} else {
		sort.Slice(idx, func(a, b int) bool { return peaks[idx[a]] < peaks[idx[b]] })
	}

	acc := 0.0
	prev := 0.0
	for rank, i := range idx {
		c := peaks[i]
		acc += (c - prev) / float64(n-rank)
		phi[i] = acc
		prev = c
	}
	return nil
}

// PeakGameNaive computes the peak-game Shapley value via full coalition
// enumeration. It exists as the ablation baseline for PeakGame (the paper's
// 2^M formulation in Eq. 4 versus the closed form in Eq. 7) and as a test
// oracle; production code should always use PeakGame.
func PeakGameNaive(peaks []float64) ([]float64, error) {
	n := len(peaks)
	for i, p := range peaks {
		if p < 0 {
			return nil, fmt.Errorf("shapley: peak game requires non-negative peaks, player %d has %v", i, p)
		}
	}
	return Exact(n, func(mask uint64) float64 {
		peak := 0.0
		for mask != 0 {
			bit := mask & -mask
			if p := peaks[bits.TrailingZeros64(bit)]; p > peak {
				peak = p
			}
			mask ^= bit
		}
		return peak
	})
}
