package shapley

import (
	"math/rand"
	"testing"
)

// Pinned benchmarks for the delta engine, consumed by the CI
// bench-regression gate (scripts/benchguard.go): a single-player change at
// n=16 applied through a DeltaTable versus the scratch rebuilds it
// replaces, all serial so the comparison is pure work, not parallelism.
// The perturbation alternates between two demand vectors so every
// iteration re-evaluates real changes, and the measured ratio
// scratch-build-table / delta-1p is the delta speedup recorded in
// results/delta_speedup.txt by scripts/reproduce.sh.

const (
	benchDeltaN      = 16
	benchDeltaSlices = 8
)

func BenchmarkDeltaApply(b *testing.B) {
	g := randomDeltaGame(rand.New(rand.NewSource(21)), benchDeltaN, benchDeltaSlices)
	const p = 5
	alt := [][]float64{
		append([]float64(nil), g.vecs[p]...),
		randomVec(rand.New(rand.NewSource(22)), benchDeltaSlices, 7),
	}

	b.Run("delta-1p", func(b *testing.B) {
		dt, err := NewDeltaTable(benchDeltaN, g.factory(), 1)
		if err != nil {
			b.Fatal(err)
		}
		add, remove, value := g.factory()()
		factory := func() (func(int), func(int), func() float64) { return add, remove, value }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.vecs[p] = alt[i%2]
			if _, err := dt.Apply(1<<p, factory, 1); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("delta-1p-plain", func(b *testing.B) {
		plain := setGame(g.plain())
		dt, err := NewDeltaTable(benchDeltaN, plain, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.vecs[p] = alt[i%2]
			if _, err := dt.Apply(1<<p, plain, 1); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("scratch-build-table", func(b *testing.B) {
		plain := setGame(g.plain())
		for i := 0; i < b.N; i++ {
			g.vecs[p] = alt[i%2]
			if _, err := buildTable(benchDeltaN, plain, 1); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("scratch-incremental", func(b *testing.B) {
		factory := g.factory()
		for i := 0; i < b.N; i++ {
			g.vecs[p] = alt[i%2]
			if _, err := buildTable(benchDeltaN, factory, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
