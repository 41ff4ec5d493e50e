package shapley

import (
	"math"
	"math/bits"
	"testing"
)

// Fuzz targets for the exact solvers. The invariants checked are the ones
// every downstream attribution depends on: no panics on arbitrary input,
// efficiency (the Shapley values sum to v(grand) - v(empty)), and the
// closed-form peak-game solver agreeing with full coalition enumeration.

// tableFromBytes decodes a fuzzer byte string into a coalition table for an
// n-player game. Bytes map to small non-negative floats (b/4, so quarters
// exercise non-integer arithmetic); missing bytes extend with zero. The
// empty coalition is pinned to value 0 so efficiency reduces to
// sum(phi) == v(grand).
func tableFromBytes(n int, data []byte) []float64 {
	table := make([]float64, 1<<uint(n))
	for i := 1; i < len(table); i++ {
		if i-1 < len(data) {
			table[i] = float64(data[i-1]) / 4
		}
	}
	return table
}

func FuzzExactFromTable(f *testing.F) {
	f.Add(uint8(3), []byte{1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(12), []byte{255, 0, 128, 9})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int(nRaw)%12 + 1
		table := tableFromBytes(n, data)
		phi, err := ExactFromTable(n, table, 1)
		if err != nil {
			t.Fatalf("valid table rejected: %v", err)
		}
		sum := 0.0
		for _, p := range phi {
			sum += p
		}
		grand := table[len(table)-1]
		if math.Abs(sum-grand) > 1e-9*(1+math.Abs(grand)) {
			t.Fatalf("efficiency violated: sum(phi)=%v, v(grand)=%v", sum, grand)
		}
		// The parallel solver must agree bit-for-bit on anything the fuzzer
		// finds, with any worker count.
		par, err := ExactFromTable(n, table, int(nRaw)%5+1)
		if err != nil {
			t.Fatalf("parallel solver rejected valid table: %v", err)
		}
		for i := range phi {
			if par[i] != phi[i] {
				t.Fatalf("player %d: parallel %v != serial %v", i, par[i], phi[i])
			}
		}
	})
}

// FuzzDeltaTable drives a DeltaTable through a fuzzer-chosen game and
// perturbation chain and demands the invariant the whole delta engine rests
// on: after every apply, the wrapped table is Float64bits-identical to a
// fresh scratch build of the current game, with the re-evaluated
// coalition count exactly 2^n - 2^(n-k) for k changed players.
func FuzzDeltaTable(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(1), []byte{0})
	f.Add(uint8(9), []byte{7, 7, 7, 0, 255, 3, 1, 128, 64, 32, 5, 17, 200, 9})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int(nRaw)%9 + 1
		const slices = 3
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// Integer-valued demands keep the incremental add/remove arithmetic
		// exact, so bitwise equality to a fresh build is the contract (the
		// same reason the attribution demand-peak game qualifies).
		g := &deltaGame{slices: slices, vecs: make([][]float64, n)}
		for i := range g.vecs {
			vec := make([]float64, slices)
			for s := range vec {
				vec[s] = float64(next() % 8)
			}
			g.vecs[i] = vec
		}
		dt, err := NewDeltaTable(n, g.factory(), int(nRaw)%3+1)
		if err != nil {
			t.Fatalf("build rejected valid game: %v", err)
		}
		for step := 0; step < 4; step++ {
			changed := uint64(next()) & (uint64(1)<<uint(n) - 1)
			for rest := changed; rest != 0; rest &= rest - 1 {
				vec := g.vecs[bits.TrailingZeros64(rest)]
				for s := range vec {
					vec[s] = float64(next() % 8)
				}
			}
			workers := int(next())%3 + 1
			var stats DeltaStats
			if step%2 == 0 {
				stats, err = dt.Apply(changed, g.factory(), workers)
			} else {
				stats, err = dt.Apply(changed, setGame(g.plain()), workers)
			}
			if err != nil {
				t.Fatalf("step %d: apply: %v", step, err)
			}
			k := bits.OnesCount64(changed)
			if want := 1<<uint(n) - 1<<uint(n-k); stats.Coalitions != want {
				t.Fatalf("step %d: %d coalitions re-evaluated, want %d (n=%d, k=%d)",
					step, stats.Coalitions, want, n, k)
			}
			scratch, err := buildTable(n, setGame(g.plain()), workers)
			if err != nil {
				t.Fatalf("step %d: scratch: %v", step, err)
			}
			for m := range scratch {
				if math.Float64bits(dt.Table()[m]) != math.Float64bits(scratch[m]) {
					t.Fatalf("step %d: mask %#x: delta %v != scratch %v",
						step, m, dt.Table()[m], scratch[m])
				}
			}
		}
	})
}

func FuzzPeakGame(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0})
	f.Add([]byte{255, 255, 0, 7, 7, 7, 9, 200, 31, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 12 {
			return
		}
		peaks := make([]float64, len(data))
		maxPeak := 0.0
		for i, b := range data {
			peaks[i] = float64(b) / 4
			if peaks[i] > maxPeak {
				maxPeak = peaks[i]
			}
		}
		closed, err := PeakGame(peaks)
		if err != nil {
			t.Fatalf("non-negative peaks rejected: %v", err)
		}
		naive, err := PeakGameNaive(peaks)
		if err != nil {
			t.Fatalf("naive solver rejected: %v", err)
		}
		sum := 0.0
		for i := range peaks {
			if math.Abs(closed[i]-naive[i]) > 1e-9*(1+maxPeak) {
				t.Fatalf("player %d: closed form %v != naive %v", i, closed[i], naive[i])
			}
			if closed[i] < 0 {
				t.Fatalf("player %d: negative share %v", i, closed[i])
			}
			sum += closed[i]
		}
		if math.Abs(sum-maxPeak) > 1e-9*(1+maxPeak) {
			t.Fatalf("efficiency violated: sum(phi)=%v, peak=%v", sum, maxPeak)
		}
	})
}
