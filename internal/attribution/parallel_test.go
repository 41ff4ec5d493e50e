package attribution

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"fairco2/internal/checkpoint"
)

// Differential tests of the Parallelism knob at the attribution layer.
// Workloads demand integer cores, so coalition peaks are exact integers and
// the exact methods must be bit-for-bit identical for every worker count.

func TestGroundTruthParallelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const budget = 1e6
	for trial := 0; trial < 25; trial++ {
		s := randomSchedule(t, rng)
		serial, err := GroundTruth{Parallelism: 1}.Attribute(s, budget)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 3, 8} {
			m := GroundTruth{Parallelism: workers}
			par, err := m.Attribute(s, budget)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			// The checkpointed build, once fresh and once resumed from the
			// final snapshot a pre-cancelled run leaves behind.
			fresh, err := m.AttributeCheckpointed(context.Background(), s, budget, checkpoint.Spec{Dir: t.TempDir(), Every: 16})
			if err != nil {
				t.Fatalf("trial %d workers %d: checkpointed: %v", trial, workers, err)
			}
			ck := checkpoint.Spec{Dir: t.TempDir()}
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := m.AttributeCheckpointed(cancelled, s, budget, ck); !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d workers %d: cancelled checkpointed run: %v", trial, workers, err)
			}
			resumed, err := m.AttributeCheckpointed(context.Background(), s, budget, ck)
			if err != nil {
				t.Fatalf("trial %d workers %d: resumed: %v", trial, workers, err)
			}
			for name, got := range map[string][]float64{"parallel": par, "checkpointed": fresh, "resumed": resumed} {
				for i := range serial {
					if got[i] != serial[i] {
						t.Fatalf("trial %d workers %d workload %d: %s %v != serial %v",
							trial, workers, i, name, got[i], serial[i])
					}
				}
			}
		}
	}
}

func TestTemporalShapleyParallelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const budget = 1e6
	for trial := 0; trial < 25; trial++ {
		s := randomSchedule(t, rng)
		serial, err := TemporalShapley{Parallelism: 1}.Attribute(s, budget)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 5} {
			par, err := TemporalShapley{Parallelism: workers}.Attribute(s, budget)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			for i := range serial {
				if par[i] != serial[i] {
					t.Fatalf("trial %d workers %d workload %d: parallel %v != serial %v",
						trial, workers, i, par[i], serial[i])
				}
			}
		}
	}
}

// TestSampledShapleyParallelDeterminism pins the sampled contract: a fixed
// (Seed, Parallelism) pair reproduces the estimate bit-for-bit, Parallelism
// 0 and 1 are the same serial single stream, and the sharded estimate stays
// an unbiased approximation of the exact ground truth.
func TestSampledShapleyParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const budget = 1e6
	s := randomSchedule(t, rng)

	serial0, err := SampledShapley{Samples: 5000, Seed: 42}.Attribute(s, budget)
	if err != nil {
		t.Fatal(err)
	}
	serial1, err := SampledShapley{Samples: 5000, Seed: 42, Parallelism: 1}.Attribute(s, budget)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial0 {
		if serial0[i] != serial1[i] {
			t.Fatalf("workload %d: parallelism 0 gave %v, parallelism 1 gave %v", i, serial0[i], serial1[i])
		}
	}

	a, err := SampledShapley{Samples: 5000, Seed: 42, Parallelism: 4}.Attribute(s, budget)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampledShapley{Samples: 5000, Seed: 42, Parallelism: 4}.Attribute(s, budget)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("workload %d: repeated sharded run gave %v then %v", i, a[i], b[i])
		}
	}

	exact, err := GroundTruth{}.Attribute(s, budget)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, sum(a), budget, 1e-3, "sharded estimate conserves budget")
	for i := range exact {
		if exact[i] == 0 {
			continue
		}
		if rel := math.Abs(a[i]-exact[i]) / exact[i]; rel > 0.15 {
			t.Errorf("workload %d: sharded estimate %v deviates %.3f from exact %v", i, a[i], rel, exact[i])
		}
	}
}
