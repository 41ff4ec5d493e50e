package fairco2

// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation, plus ablations of Fair-CO2's design choices. Each benchmark
// regenerates its experiment at a laptop-friendly scale and reports the
// headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the rows/series the paper reports (shape, not absolute
// hardware numbers). EXPERIMENTS.md records paper-vs-measured values.

import (
	"context"
	"math/rand"
	"testing"

	"fairco2/internal/carbon"
	"fairco2/internal/checkpoint"
	"fairco2/internal/forecast"
	"fairco2/internal/grid"
	"fairco2/internal/livesignal"
	"fairco2/internal/montecarlo"
	"fairco2/internal/optimize"
	"fairco2/internal/schedule"
	"fairco2/internal/shapley"
	"fairco2/internal/temporal"
	"fairco2/internal/trace"
	"fairco2/internal/units"
	"fairco2/internal/workload"
)

// BenchmarkTable1Components regenerates Table 1: the TDP-to-embodied-carbon
// ratios showing power is a poor proxy for embodied carbon.
func BenchmarkTable1Components(b *testing.B) {
	var rows []carbon.Table1Row
	for i := 0; i < b.N; i++ {
		rows = carbon.Table1()
	}
	b.ReportMetric(rows[0].RatioKgPerWatt, "dram-kg/W")
	b.ReportMetric(rows[1].RatioKgPerWatt, "cpu-kg/W")
	b.ReportMetric(rows[0].RatioKgPerWatt/rows[1].RatioKgPerWatt, "ratio-gap-x")
}

// BenchmarkFigure1MinimumCapacity evaluates the Figure 1 observation:
// differently-shaped demand curves with the same peak require the same
// minimum provisioned capacity.
func BenchmarkFigure1MinimumCapacity(b *testing.B) {
	flat := &schedule.Schedule{Slices: 3, SliceDuration: 1, Workloads: []schedule.Workload{
		{ID: 0, Cores: 48, Start: 0, Duration: 3},
	}}
	spike := &schedule.Schedule{Slices: 3, SliceDuration: 1, Workloads: []schedule.Workload{
		{ID: 0, Cores: 16, Start: 0, Duration: 3},
		{ID: 1, Cores: 32, Start: 1, Duration: 1},
	}}
	var peakFlat, peakSpike float64
	for i := 0; i < b.N; i++ {
		peakFlat, peakSpike = flat.Peak(), spike.Peak()
	}
	b.ReportMetric(peakFlat, "flat-peak-cores")
	b.ReportMetric(peakSpike, "spike-peak-cores")
}

// BenchmarkFigure2ColocationCharacterization regenerates the pairwise
// colocation matrices and reports the NBODY/CH asymmetry.
func BenchmarkFigure2ColocationCharacterization(b *testing.B) {
	var char *workload.Characterization
	var err error
	for i := 0; i < b.N; i++ {
		char, err = workload.Characterize(workload.Suite())
		if err != nil {
			b.Fatal(err)
		}
	}
	nbody, _ := char.Index(workload.NBODY)
	ch, _ := char.Index(workload.CH)
	b.ReportMetric((char.RuntimeFactor[nbody][ch]-1)*100, "nbody-with-ch-%")
	b.ReportMetric((char.RuntimeFactor[ch][nbody]-1)*100, "ch-with-nbody-%")
}

// BenchmarkFigure4TemporalShapleySignal generates the 30-day -> 5-minute
// hierarchical intensity signal with the paper's split ratios and reports
// the dynamic range of the signal.
func BenchmarkFigure4TemporalShapleySignal(b *testing.B) {
	demand, err := trace.GenerateAzureLike(trace.DefaultAzureLikeConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := temporal.Config{SplitRatios: temporal.PaperSplits()}
	b.ResetTimer()
	var sig = new(struct{ min, max float64 })
	for i := 0; i < b.N; i++ {
		s, err := temporal.IntensitySignal(demand, 1e7, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sig.min, sig.max = s.Values[0], s.Values[0]
		for _, v := range s.Values {
			if v < sig.min {
				sig.min = v
			}
			if v > sig.max {
				sig.max = v
			}
		}
	}
	b.ReportMetric(sig.max/sig.min, "intensity-dynamic-range-x")
}

// BenchmarkFigure5DemandForecast fits the Prophet-style forecaster on 21
// days and forecasts 9, reporting demand MAPE.
func BenchmarkFigure5DemandForecast(b *testing.B) {
	demand, err := trace.GenerateAzureLike(trace.DefaultAzureLikeConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var eval forecast.Evaluation
	for i := 0; i < b.N; i++ {
		_, eval, err = forecast.Backtest(demand, 21, forecast.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(eval.MAPE, "demand-mape-%")
	b.ReportMetric(eval.WorstAPE, "demand-worst-ape-%")
}

// BenchmarkFigure7DemandMonteCarlo runs a scaled dynamic-demand Monte
// Carlo (paper: 10,000 trials, <=22 workloads) and reports each method's
// average deviation from the exact Shapley ground truth.
func BenchmarkFigure7DemandMonteCarlo(b *testing.B) {
	cfg := montecarlo.DefaultDemandConfig()
	cfg.Trials = 120
	var result *montecarlo.DemandResult
	var err error
	for i := 0; i < b.N; i++ {
		result, err = montecarlo.RunDemand(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(result.Overall(montecarlo.MethodRUP).Mean*100, "rup-dev-%")
	b.ReportMetric(result.Overall(montecarlo.MethodDemand).Mean*100, "demandprop-dev-%")
	b.ReportMetric(result.Overall(montecarlo.MethodFairCO2).Mean*100, "fairco2-dev-%")
	b.ReportMetric(result.OverallWorst(montecarlo.MethodRUP).Mean*100, "rup-worst-%")
	b.ReportMetric(result.OverallWorst(montecarlo.MethodFairCO2).Mean*100, "fairco2-worst-%")
}

// BenchmarkFigure8ColocationMonteCarlo runs a scaled colocation Monte
// Carlo (paper: 10,000 scenarios of 4-100 workloads) and reports mean and
// worst-case deviations.
func BenchmarkFigure8ColocationMonteCarlo(b *testing.B) {
	cfg := montecarlo.DefaultColocationConfig()
	cfg.Trials = 100
	cfg.GroundTruthSamples = 800
	var result *montecarlo.ColocationResult
	var err error
	for i := 0; i < b.N; i++ {
		result, err = montecarlo.RunColocation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(result.Overall(montecarlo.MethodRUP).Mean*100, "rup-dev-%")
	b.ReportMetric(result.Overall(montecarlo.MethodFairCO2).Mean*100, "fairco2-dev-%")
	b.ReportMetric(result.OverallWorst(montecarlo.MethodRUP).Mean*100, "rup-worst-%")
	b.ReportMetric(result.OverallWorst(montecarlo.MethodFairCO2).Mean*100, "fairco2-worst-%")
}

// BenchmarkFigure9PerWorkloadDistributions collects the per-workload and
// per-partner deviation distributions and reports how much Fair-CO2
// narrows the spread across partners versus RUP.
func BenchmarkFigure9PerWorkloadDistributions(b *testing.B) {
	cfg := montecarlo.DefaultColocationConfig()
	cfg.Trials = 80
	cfg.GroundTruthSamples = 800
	cfg.CollectPerWorkload = true
	var result *montecarlo.ColocationResult
	var err error
	for i := 0; i < b.N; i++ {
		result, err = montecarlo.RunColocation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	spread := func(m map[workload.Name][]float64) float64 {
		// Spread across partner identities: max minus min of per-partner
		// mean deviation. RUP's partner effect makes this wide; Fair-CO2
		// collapses it (Figure 9 bottom row).
		min, max := 1e18, -1e18
		for _, devs := range m {
			sum := 0.0
			for _, d := range devs {
				sum += d
			}
			mean := sum / float64(len(devs))
			if mean < min {
				min = mean
			}
			if mean > max {
				max = mean
			}
		}
		return max - min
	}
	b.ReportMetric(spread(result.PerPartnerDeviations(montecarlo.MethodRUP))*100, "rup-partner-spread-%")
	b.ReportMetric(spread(result.PerPartnerDeviations(montecarlo.MethodFairCO2))*100, "fairco2-partner-spread-%")
}

// BenchmarkFigure10ConfigSweep sweeps all nine batch workloads over the
// configuration grid and the 0-1000 gCO2e/kWh intensity axis, reporting
// the maximum saving of carbon-optimal over performance-optimal.
func BenchmarkFigure10ConfigSweep(b *testing.B) {
	cost, err := optimize.NewCostModel(carbon.NewReferenceServer())
	if err != nil {
		b.Fatal(err)
	}
	cis := optimize.DefaultCISweep()
	var maxSavings float64
	for i := 0; i < b.N; i++ {
		maxSavings = 0
		for _, m := range optimize.BatchModels() {
			rows, err := optimize.Figure10(m, cost, cis)
			if err != nil {
				b.Fatal(err)
			}
			if s := optimize.MaxSavings(rows); s > maxSavings {
				maxSavings = s
			}
		}
	}
	b.ReportMetric(maxSavings*100, "max-savings-%")
}

// BenchmarkFigure11LiveSignal evaluates the live intensity signal under
// forecast error, reporting the paper's two headline errors.
func BenchmarkFigure11LiveSignal(b *testing.B) {
	demand, err := trace.GenerateAzureLike(trace.DefaultAzureLikeConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *livesignal.Result
	for i := 0; i < b.N; i++ {
		res, err = livesignal.Evaluate(demand, livesignal.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.IntensityMAPE, "intensity-mape-%")
	b.ReportMetric(res.IntensityWorstAPE, "intensity-worst-ape-%")
}

// BenchmarkFigure12ParetoFront builds the FAISS latency-carbon Pareto
// fronts and locates the IVF -> HNSW crossover intensity.
func BenchmarkFigure12ParetoFront(b *testing.B) {
	cost, err := optimize.NewCostModel(carbon.NewReferenceServer())
	if err != nil {
		b.Fatal(err)
	}
	var cross units.CarbonIntensity
	var frontLen int
	for i := 0; i < b.N; i++ {
		points, err := optimize.SweepServing(optimize.ServingModels(), optimize.ServingSweepSpace(), cost, 230, 1)
		if err != nil {
			b.Fatal(err)
		}
		frontLen = len(optimize.Pareto(points))
		cross, err = optimize.AlgorithmCrossover(optimize.ServingModels(), optimize.ServingSweepSpace(), cost, 2, 0, 400, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cross), "crossover-gco2e/kWh")
	b.ReportMetric(float64(frontLen), "pareto-points")
}

// BenchmarkFigure13DynamicWeek simulates the week of dynamic FAISS
// reconfiguration and reports the carbon savings (paper: 38.4%).
func BenchmarkFigure13DynamicWeek(b *testing.B) {
	cost, err := optimize.NewCostModel(carbon.NewReferenceServer())
	if err != nil {
		b.Fatal(err)
	}
	demand, err := trace.GenerateAzureLike(trace.DefaultAzureLikeConfig())
	if err != nil {
		b.Fatal(err)
	}
	sig, err := temporal.IntensitySignal(demand, 1e7, temporal.Config{SplitRatios: temporal.PaperSplits()})
	if err != nil {
		b.Fatal(err)
	}
	shape, err := optimize.NormalizedEmbodiedShape(sig)
	if err != nil {
		b.Fatal(err)
	}
	ciTrace, err := grid.NewSyntheticCAISO(grid.DefaultCAISOConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *optimize.DynamicResult
	for i := 0; i < b.N; i++ {
		res, err = optimize.DynamicWeek(cost, grid.Trace{Series: ciTrace}, shape, optimize.DefaultDynamicConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Savings*100, "savings-%")
	b.ReportMetric(float64(res.AlgorithmSwitches), "algo-switches")
}

// BenchmarkGroundTruthExactScaling measures the exponential cost of the
// exact Shapley ground truth as schedules grow — the scalability argument
// motivating Temporal Shapley (§4.2).
func BenchmarkGroundTruthExactScaling(b *testing.B) {
	for _, n := range []int{8, 12, 16, 18} {
		b.Run(benchName("workloads", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cfg := schedule.DefaultGeneratorConfig()
			cfg.MaxWorkloads = n
			cfg.MinSlices, cfg.MaxSlices = 9, 9
			cfg.MaxConcurrent = 5
			var s *schedule.Schedule
			for {
				var err error
				s, err = schedule.Generate(cfg, rng)
				if err != nil {
					b.Fatal(err)
				}
				if len(s.Workloads) == n {
					break
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				table, err := shapley.BuildGameTable(context.Background(), n, func() (func(int), func(int), func() float64) {
					return func(int) {}, func(int) {}, func() float64 { return 0 }
				}, 1, checkpoint.Spec{})
				_ = table
				if err != nil {
					b.Fatal(err)
				}
				// Full exact attribution over the real peak game.
				phi, err := shapley.Exact(n, s.PeakOfSubset)
				if err != nil {
					b.Fatal(err)
				}
				_ = phi
			}
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
