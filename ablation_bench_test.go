package fairco2

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// closed-form peak-game solver versus naive subset enumeration, the
// hierarchical split schedule, the permutation-sample budget of the
// colocation ground truth, and the historical sampling rate of the
// interference profiles.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"fairco2/internal/checkpoint"
	"fairco2/internal/colocation"
	"fairco2/internal/livesignal"
	"fairco2/internal/montecarlo"
	"fairco2/internal/schedule"
	"fairco2/internal/shapley"
	"fairco2/internal/temporal"
	"fairco2/internal/trace"
	"fairco2/internal/workload"
)

// BenchmarkAblationClosedFormVsSubset compares the two peak-game solvers
// (Eq. 7's airport form versus Eq. 4's 2^M enumeration) at the level
// widths Temporal Shapley actually uses.
func BenchmarkAblationClosedFormVsSubset(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{8, 12, 16, 20} {
		peaks := make([]float64, m)
		for i := range peaks {
			peaks[i] = rng.Float64() * 1000
		}
		b.Run("closed-form/M="+itoa(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := shapley.PeakGame(peaks); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("naive-subset/M="+itoa(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := shapley.PeakGameNaive(peaks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSplitRatios compares hierarchical split schedules for
// the 30-day, 5-minute signal: the paper's 10*9*8*12, a flatter two-level
// schedule, and a steeper five-level one. All conserve the budget; cost
// and signal granularity trade off.
func BenchmarkAblationSplitRatios(b *testing.B) {
	demand, err := trace.GenerateAzureLike(trace.DefaultAzureLikeConfig())
	if err != nil {
		b.Fatal(err)
	}
	schedules := map[string][]int{
		"paper-10x9x8x12":        temporal.PaperSplits(),
		"two-level-30x288":       {30, 288},
		"five-level-10x3x3x8x12": {10, 3, 3, 8, 12},
		"single-level-8640":      {8640},
	}
	for name, splits := range schedules {
		b.Run(name, func(b *testing.B) {
			cfg := temporal.Config{SplitRatios: splits}
			for i := 0; i < b.N; i++ {
				if _, err := temporal.IntensitySignal(demand, 1e7, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(temporal.ClosedFormOps(splits), "model-ops")
		})
	}
}

// BenchmarkAblationPermutationSamples measures how the sampled colocation
// ground truth converges to the exact one as the permutation budget grows.
func BenchmarkAblationPermutationSamples(b *testing.B) {
	char, err := workload.Characterize(workload.Suite())
	if err != nil {
		b.Fatal(err)
	}
	env, err := colocation.NewEnvironment(250, char)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	scen, err := colocation.NewRandomScenario(env, 6, rng)
	if err != nil {
		b.Fatal(err)
	}
	exact, err := colocation.GroundTruth(scen, colocation.GroundTruthConfig{ExactThreshold: 7})
	if err != nil {
		b.Fatal(err)
	}
	for _, samples := range []int{100, 500, 2000, 8000} {
		b.Run("samples="+itoa(samples), func(b *testing.B) {
			var maxErr float64
			for i := 0; i < b.N; i++ {
				est, err := colocation.GroundTruth(scen, colocation.GroundTruthConfig{
					ExactThreshold: 0, Samples: samples, Rng: rand.New(rand.NewSource(int64(i))),
				})
				if err != nil {
					b.Fatal(err)
				}
				maxErr = 0
				for k := range exact {
					if e := math.Abs(est[k]-exact[k]) / exact[k]; e > maxErr {
						maxErr = e
					}
				}
			}
			b.ReportMetric(maxErr*100, "max-error-%")
		})
	}
}

// BenchmarkAblationHistoricalSamplingRate re-runs the colocation Monte
// Carlo pinned to a fixed historical sampling rate — Figure 8b as an
// ablation: even one historical sample recovers most of Fair-CO2's
// fairness.
func BenchmarkAblationHistoricalSamplingRate(b *testing.B) {
	for _, k := range []int{1, 4, 15} {
		b.Run("partners="+itoa(k), func(b *testing.B) {
			cfg := montecarlo.DefaultColocationConfig()
			cfg.Trials = 60
			cfg.GroundTruthSamples = 600
			cfg.MinSamples, cfg.MaxSamples = k, k
			var result *montecarlo.ColocationResult
			var err error
			for i := 0; i < b.N; i++ {
				result, err = montecarlo.RunColocation(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(result.Overall(montecarlo.MethodFairCO2).Mean*100, "fairco2-dev-%")
			b.ReportMetric(result.Overall(montecarlo.MethodRUP).Mean*100, "rup-dev-%")
		})
	}
}

// BenchmarkAblationIncrementalVsDirectTable compares building the
// coalition table with incremental demand updates versus recomputing the
// peak from scratch per coalition — the optimization that keeps the exact
// ground truth usable at 10,000-trial scale.
func BenchmarkAblationIncrementalVsDirectTable(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	cfg := schedule.DefaultGeneratorConfig()
	cfg.MaxWorkloads = 12
	cfg.MinSlices, cfg.MaxSlices = 9, 9
	var s *schedule.Schedule
	for {
		var err error
		s, err = schedule.Generate(cfg, rng)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Workloads) == 12 {
			break
		}
	}
	n := len(s.Workloads)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := shapley.BuildGameTable(context.Background(), n, func() (func(int), func(int), func() float64) {
				demand := make([]float64, s.Slices)
				return func(w int) { addDemand(demand, s, w, 1) },
					func(w int) { addDemand(demand, s, w, -1) },
					func() float64 { return maxOf(demand) }
			}, 1, checkpoint.Spec{})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := shapley.BuildTable(n, s.PeakOfSubset); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationForecastHarmonics varies the forecaster structure,
// reporting live-signal accuracy per harmonic budget.
func BenchmarkAblationForecastHarmonics(b *testing.B) {
	demand, err := trace.GenerateAzureLike(trace.DefaultAzureLikeConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, h := range []int{1, 2, 4, 8} {
		b.Run("daily-harmonics="+itoa(h), func(b *testing.B) {
			var mape float64
			for i := 0; i < b.N; i++ {
				cfg := livesignal.DefaultConfig()
				cfg.Forecast.DailyHarmonics = h
				res, err := livesignal.Evaluate(demand, cfg)
				if err != nil {
					b.Fatal(err)
				}
				mape = res.IntensityMAPE
			}
			b.ReportMetric(mape, "intensity-mape-%")
		})
	}
}

// BenchmarkAblationNodeCapacity extends the colocation fairness comparison
// beyond the paper's pairwise nodes: at every packing density, Fair-CO2's
// history-based attribution stays several times closer to the grouped
// ground truth than RUP.
func BenchmarkAblationNodeCapacity(b *testing.B) {
	char, err := workload.Characterize(workload.Suite())
	if err != nil {
		b.Fatal(err)
	}
	env, err := colocation.NewEnvironment(250, char)
	if err != nil {
		b.Fatal(err)
	}
	for _, capacity := range []int{2, 3, 4} {
		b.Run("capacity="+itoa(capacity), func(b *testing.B) {
			var rupDev, fairDev float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i) + 1))
				rupDev, fairDev = 0, 0
				count := 0
				for trial := 0; trial < 15; trial++ {
					s, err := colocation.NewRandomScenario(env, 6, rng)
					if err != nil {
						b.Fatal(err)
					}
					gt, err := colocation.GroundTruthGrouped(s, capacity, colocation.GroundTruthConfig{ExactThreshold: 7})
					if err != nil {
						b.Fatal(err)
					}
					rup, err := colocation.RUPGrouped(s, capacity)
					if err != nil {
						b.Fatal(err)
					}
					factors, err := colocation.GroupedFactors(s, capacity, 600, rng)
					if err != nil {
						b.Fatal(err)
					}
					fair, err := colocation.FairCO2Grouped(s, capacity, factors)
					if err != nil {
						b.Fatal(err)
					}
					for k := range gt {
						rupDev += math.Abs(rup[k]-gt[k]) / gt[k]
						fairDev += math.Abs(fair[k]-gt[k]) / gt[k]
						count++
					}
				}
				rupDev /= float64(count)
				fairDev /= float64(count)
			}
			b.ReportMetric(rupDev*100, "rup-dev-%")
			b.ReportMetric(fairDev*100, "fairco2-dev-%")
		})
	}
}

// BenchmarkAblationInterferenceStrength rescales the interference model's
// pressure vectors and re-runs the colocation fairness comparison: RUP's
// unfairness grows with contention strength while Fair-CO2 stays flat —
// the stronger the interference, the more the paper's contribution
// matters.
func BenchmarkAblationInterferenceStrength(b *testing.B) {
	for _, scale := range []float64{0.5, 1.0, 2.0} {
		name := "pressure-x0.5"
		if scale == 1 {
			name = "pressure-x1.0"
		} else if scale == 2 {
			name = "pressure-x2.0"
		}
		b.Run(name, func(b *testing.B) {
			suite := workload.Suite()
			for _, p := range suite {
				for r := range p.Pressure {
					p.Pressure[r] *= scale
				}
			}
			char, err := workload.Characterize(suite)
			if err != nil {
				b.Fatal(err)
			}
			env, err := colocation.NewEnvironment(250, char)
			if err != nil {
				b.Fatal(err)
			}
			var rupDev, fairDev float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i) + 1))
				rupDev, fairDev = 0, 0
				count := 0
				for trial := 0; trial < 20; trial++ {
					s, err := colocation.NewRandomScenario(env, 6, rng)
					if err != nil {
						b.Fatal(err)
					}
					gt, err := colocation.GroundTruth(s, colocation.GroundTruthConfig{ExactThreshold: 7})
					if err != nil {
						b.Fatal(err)
					}
					rup, err := colocation.RUP(s)
					if err != nil {
						b.Fatal(err)
					}
					factors, err := colocation.FullHistoryFactors(s)
					if err != nil {
						b.Fatal(err)
					}
					fair, err := colocation.FairCO2(s, factors)
					if err != nil {
						b.Fatal(err)
					}
					for k := range gt {
						rupDev += math.Abs(rup[k]-gt[k]) / gt[k]
						fairDev += math.Abs(fair[k]-gt[k]) / gt[k]
						count++
					}
				}
				rupDev /= float64(count)
				fairDev /= float64(count)
			}
			b.ReportMetric(rupDev*100, "rup-dev-%")
			b.ReportMetric(fairDev*100, "fairco2-dev-%")
		})
	}
}

func addDemand(demand []float64, s *schedule.Schedule, w int, sign float64) {
	wl := s.Workloads[w]
	for t := wl.Start; t < wl.End(); t++ {
		demand[t] += sign * float64(wl.Cores)
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
