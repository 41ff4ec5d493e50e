package shapley

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Serial-vs-parallel benchmarks for the engine's hot paths. Names all match
// `-bench 'Shapley|MonteCarlo'` so one invocation produces the speedup
// table recorded in results/parallel_speedup.txt. The parallel variants use
// GOMAXPROCS workers (workers=0), so the measured ratio is the speedup the
// default knob delivers on the benchmarking host.

func benchGame(n int) SetFunc {
	peaks := randomPeaks(n, rand.New(rand.NewSource(1)))
	return peakOf(peaks)
}

func BenchmarkShapleyBuildTable(b *testing.B) {
	for _, n := range []int{16, 18, 20} {
		game := benchGame(n)
		b.Run(fmt.Sprintf("n=%d/serial", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildTable(n, game); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/parallel-%d", n, runtime.GOMAXPROCS(0)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := buildTable(n, setGame(game), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkShapleyExactFromTable(b *testing.B) {
	for _, n := range []int{16, 18, 20} {
		table, err := BuildTable(n, benchGame(n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/serial", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ExactFromTable(n, table, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/parallel-%d", n, runtime.GOMAXPROCS(0)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ExactFromTable(n, table, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMonteCarloSampling(b *testing.B) {
	const n, samples = 40, 2000
	game := benchGame(n)
	b.Run("serial", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < b.N; i++ {
			if _, err := MonteCarlo(n, game, samples, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{0, 4} {
		label := fmt.Sprintf("parallel-%d", workers)
		if workers == 0 {
			label = fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0))
		}
		b.Run(label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MonteCarloParallel(n, game, samples, int64(i), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMonteCarloAntitheticSampling(b *testing.B) {
	const n, samples = 40, 2000
	game := benchGame(n)
	b.Run("serial", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < b.N; i++ {
			if _, err := MonteCarloAntithetic(n, game, samples, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkShapleySampledOrdered(b *testing.B) {
	const n, samples = 40, 2000
	peaks := randomPeaks(n, rand.New(rand.NewSource(4)))
	newMarginals := func() OrderedMarginals {
		return func(perm []int, out []float64) {
			cur := 0.0
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
	b.Run("serial", func(b *testing.B) {
		rng := rand.New(rand.NewSource(5))
		m := newMarginals()
		for i := 0; i < b.N; i++ {
			if _, err := SampledOrdered(n, m, samples, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SampledOrderedParallel(n, newMarginals, samples, int64(i), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
