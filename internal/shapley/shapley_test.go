package shapley

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %v, want %v", msg, got, want)
	}
}

// additiveGame: v(S) = sum of weights — Shapley must return the weights.
func additiveGame(weights []float64) SetFunc {
	return func(mask uint64) float64 {
		sum := 0.0
		for mask != 0 {
			bit := mask & -mask
			sum += weights[bits.TrailingZeros64(bit)]
			mask ^= bit
		}
		return sum
	}
}

func peakOf(peaks []float64) SetFunc {
	return func(mask uint64) float64 {
		peak := 0.0
		for mask != 0 {
			bit := mask & -mask
			if p := peaks[bits.TrailingZeros64(bit)]; p > peak {
				peak = p
			}
			mask ^= bit
		}
		return peak
	}
}

func TestExactAdditiveGame(t *testing.T) {
	weights := []float64{1, 2.5, 0, 7}
	phi, err := Exact(len(weights), additiveGame(weights))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range weights {
		approx(t, phi[i], w, 1e-12, "additive game Shapley equals weight")
	}
}

func TestExactGloveGame(t *testing.T) {
	// Classic 3-player glove game: players 0,1 hold left gloves, player 2
	// a right glove; a pair is worth 1. Known solution: (1/6, 1/6, 2/3).
	v := func(mask uint64) float64 {
		left := mask&0b011 != 0
		right := mask&0b100 != 0
		if left && right {
			return 1
		}
		return 0
	}
	phi, err := Exact(3, v)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, phi[0], 1.0/6, 1e-12, "left glove 0")
	approx(t, phi[1], 1.0/6, 1e-12, "left glove 1")
	approx(t, phi[2], 2.0/3, 1e-12, "right glove")
}

func TestExactEfficiencyAxiom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(8)
		table := make([]float64, 1<<uint(n))
		for i := 1; i < len(table); i++ {
			table[i] = rng.Float64() * 100
		}
		phi, err := ExactFromTable(n, table, 1)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range phi {
			sum += p
		}
		approx(t, sum, table[len(table)-1]-table[0], 1e-9, "efficiency")
	}
}

func TestExactSymmetryAxiom(t *testing.T) {
	// Players 0 and 1 are interchangeable in this game.
	v := func(mask uint64) float64 {
		k := bits.OnesCount64(mask & 0b011)
		extra := 0.0
		if mask&0b100 != 0 {
			extra = 5
		}
		return float64(k*k) + extra
	}
	phi, err := Exact(3, v)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, phi[0], phi[1], 1e-12, "symmetric players equal")
}

func TestExactNullPlayerAxiom(t *testing.T) {
	// Player 2 never changes the value.
	v := func(mask uint64) float64 { return float64(bits.OnesCount64(mask & 0b011)) }
	phi, err := Exact(3, v)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, phi[2], 0, 1e-12, "null player")
}

func TestExactLinearityAxiom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 6
	ta := make([]float64, 1<<uint(n))
	tb := make([]float64, 1<<uint(n))
	tc := make([]float64, 1<<uint(n))
	for i := 1; i < len(ta); i++ {
		ta[i] = rng.Float64()
		tb[i] = rng.Float64()
		tc[i] = 2*ta[i] + 3*tb[i]
	}
	pa, _ := ExactFromTable(n, ta, 1)
	pb, _ := ExactFromTable(n, tb, 1)
	pc, err := ExactFromTable(n, tc, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		approx(t, pc[i], 2*pa[i]+3*pb[i], 1e-9, "linearity")
	}
}

func TestExactErrors(t *testing.T) {
	if _, err := Exact(0, nil); err == nil {
		t.Error("expected error for n=0")
	}
	if _, err := Exact(MaxExactPlayers+1, func(uint64) float64 { return 0 }); err == nil {
		t.Error("expected error above MaxExactPlayers")
	}
	if _, err := ExactFromTable(3, make([]float64, 7), 1); err == nil {
		t.Error("expected error for wrong table size")
	}
}

func TestBuildTableIncrementalMatchesDirect(t *testing.T) {
	peaks := []float64{4, 1, 9, 2, 9}
	n := len(peaks)
	direct, err := BuildTable(n, peakOf(peaks))
	if err != nil {
		t.Fatal(err)
	}
	// Incremental state: multiset of member peaks via counting.
	inc, err := buildTable(n, func() (func(int), func(int), func() float64) {
		counts := map[float64]int{}
		return func(i int) { counts[peaks[i]]++ },
			func(i int) { counts[peaks[i]]-- },
			func() float64 {
				m := 0.0
				for p, c := range counts {
					if c > 0 && p > m {
						m = p
					}
				}
				return m
			}
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for mask := range direct {
		if direct[mask] != inc[mask] {
			t.Fatalf("mask %b: direct %v != incremental %v", mask, direct[mask], inc[mask])
		}
	}
}

func TestBuildTableIncrementalErrors(t *testing.T) {
	if _, err := buildTable(0, nil, 1); err == nil {
		t.Error("expected error for n=0")
	}
}

func TestMonteCarloConvergesToExact(t *testing.T) {
	peaks := []float64{10, 4, 4, 7, 1, 0}
	n := len(peaks)
	exact, err := Exact(n, peakOf(peaks))
	if err != nil {
		t.Fatal(err)
	}
	est, err := MonteCarlo(n, peakOf(peaks), 20000, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		approx(t, est[i], exact[i], 0.1, "MC estimate")
	}
}

func TestMonteCarloEfficiencyExactPerSample(t *testing.T) {
	// Marginals telescope, so even a single sample is efficient.
	peaks := []float64{3, 8, 2}
	est, err := MonteCarlo(3, peakOf(peaks), 1, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	sum := est[0] + est[1] + est[2]
	approx(t, sum, 8, 1e-12, "single-sample efficiency")
}

func TestMonteCarloErrors(t *testing.T) {
	ok := func(uint64) float64 { return 0 }
	rng := rand.New(rand.NewSource(1))
	if _, err := MonteCarlo(0, ok, 1, rng); err == nil {
		t.Error("n=0")
	}
	if _, err := MonteCarlo(64, ok, 1, rng); err == nil {
		t.Error("n=64")
	}
	if _, err := MonteCarlo(2, ok, 0, rng); err == nil {
		t.Error("samples=0")
	}
	if _, err := MonteCarlo(2, ok, 1, nil); err == nil {
		t.Error("nil rng")
	}
}

func TestPeakGameMatchesExact(t *testing.T) {
	cases := [][]float64{
		{5},
		{5, 5},
		{0, 3},
		{1, 2, 3, 4},
		{10, 10, 10},
		{7, 0, 0, 7, 3},
		{0.5, 2.25, 2.25, 9, 1e-9, 0},
	}
	for _, peaks := range cases {
		closed, err := PeakGame(peaks)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := PeakGameNaive(peaks)
		if err != nil {
			t.Fatal(err)
		}
		for i := range peaks {
			approx(t, closed[i], naive[i], 1e-9, "closed form vs enumeration")
		}
	}
}

func TestPeakGameProperty(t *testing.T) {
	// For random non-negative peak vectors up to 8 players, the closed
	// form must match exact enumeration and satisfy efficiency.
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		peaks := make([]float64, len(raw))
		maxPeak := 0.0
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			peaks[i] = math.Mod(math.Abs(v), 1000)
			if peaks[i] > maxPeak {
				maxPeak = peaks[i]
			}
		}
		closed, err := PeakGame(peaks)
		if err != nil {
			return false
		}
		naive, err := PeakGameNaive(peaks)
		if err != nil {
			return false
		}
		sum := 0.0
		for i := range peaks {
			if math.Abs(closed[i]-naive[i]) > 1e-6*(1+maxPeak) {
				return false
			}
			sum += closed[i]
		}
		return math.Abs(sum-maxPeak) <= 1e-6*(1+maxPeak)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPeakGameKnownValues(t *testing.T) {
	// Airport game with peaks 1,2,3: phi = (1/3, 1/3+1/2, 1/3+1/2+1).
	phi, err := PeakGame([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, phi[0], 1.0/3, 1e-12, "phi0")
	approx(t, phi[1], 1.0/3+1.0/2, 1e-12, "phi1")
	approx(t, phi[2], 1.0/3+1.0/2+1, 1e-12, "phi2")
}

func TestPeakGameErrors(t *testing.T) {
	if _, err := PeakGame(nil); err == nil {
		t.Error("empty game")
	}
	if _, err := PeakGame([]float64{1, -2}); err == nil {
		t.Error("negative peak")
	}
	if _, err := PeakGameNaive([]float64{-1}); err == nil {
		t.Error("negative peak naive")
	}
}

func TestPeakGameMonotoneInPeak(t *testing.T) {
	// A player with a higher peak never receives less.
	phi, err := PeakGame([]float64{2, 5, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !(phi[0] < phi[1] && phi[1] == phi[2] && phi[2] < phi[3]) {
		t.Errorf("monotonicity violated: %v", phi)
	}
}
