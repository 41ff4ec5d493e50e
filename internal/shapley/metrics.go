package shapley

import (
	"time"

	"fairco2/internal/metrics"
)

// Always-on instrumentation into the process-wide registry: one atomic add
// per solver call, so the hot loops stay untouched. The estimator label
// separates exact enumeration from the sampling families, letting a
// dashboard plot samples/sec against the convergence gauge.
var (
	metricSamples = metrics.Default().NewCounterVec(
		"fairco2_shapley_samples_total",
		"Permutations evaluated by the Shapley estimators, by estimator.",
		"estimator")
	metricExactCoalitions = metrics.Default().NewCounter(
		"fairco2_shapley_exact_coalitions_total",
		"Coalition evaluations performed by exact enumeration (2^n per game).")
	metricSampledStderr = metrics.Default().NewGauge(
		"fairco2_shapley_sampled_stderr_ratio",
		"Relative standard error of the most recent SampledOrdered run: "+
			"RMS of the per-player standard errors of the mean, divided by the grand total.")
)

// Parallel-engine instrumentation, labeled by solver mode (build-table,
// exact-from-table, delta-apply, monte-carlo, sampled-ordered). Busy/wall counters accumulate across runs so rate()
// yields long-run utilization; the gauges snapshot the most recent run so a
// dashboard can watch effective speedup next to the sample counters.
var (
	metricParallelRuns = metrics.Default().NewCounterVec(
		"fairco2_shapley_parallel_runs_total",
		"Parallel Shapley solver runs, by mode.",
		"mode")
	metricParallelWorkers = metrics.Default().NewGaugeVec(
		"fairco2_shapley_parallel_workers",
		"Worker count of the most recent parallel run, by mode.",
		"mode")
	metricParallelBusySeconds = metrics.Default().NewCounterVec(
		"fairco2_shapley_parallel_busy_seconds_total",
		"Cumulative per-worker busy time of the parallel solvers, by mode.",
		"mode")
	metricParallelWallSeconds = metrics.Default().NewCounterVec(
		"fairco2_shapley_parallel_wall_seconds_total",
		"Cumulative wall-clock time of the parallel solvers, by mode.",
		"mode")
	metricParallelSpeedup = metrics.Default().NewGaugeVec(
		"fairco2_shapley_parallel_speedup",
		"Effective speedup (summed worker busy time / wall time) of the most recent parallel run, by mode.",
		"mode")
	metricParallelUtilization = metrics.Default().NewGaugeVec(
		"fairco2_shapley_parallel_worker_utilization",
		"Worker utilization (busy time / workers x wall time) of the most recent parallel run, by mode.",
		"mode")
)

// Delta-engine instrumentation: plain (unlabeled) instruments, so the hot
// apply path pays one atomic add per counter and no map lookups.
var (
	metricDeltaApplies = metrics.Default().NewCounter(
		"fairco2_shapley_delta_applies_total",
		"Delta re-evaluations applied to wrapped coalition tables.")
	metricDeltaBlocksRecomputed = metrics.Default().NewCounter(
		"fairco2_shapley_delta_blocks_recomputed_total",
		"Gray-code table blocks re-enumerated (fully or partially) by delta applies.")
	metricDeltaBlocksSkipped = metrics.Default().NewCounter(
		"fairco2_shapley_delta_blocks_skipped_total",
		"Gray-code table blocks left untouched by delta applies.")
	metricDeltaSpeedup = metrics.Default().NewGauge(
		"fairco2_shapley_delta_speedup",
		"Coalition-evaluation ratio of the most recent delta apply: "+
			"full-table size / coalitions re-evaluated.")
)

// observeParallel records one parallel solver run.
func observeParallel(mode string, workers int, wall, busy time.Duration) {
	metricParallelRuns.With(mode).Inc()
	metricParallelWorkers.With(mode).Set(float64(workers))
	metricParallelBusySeconds.With(mode).Add(busy.Seconds())
	metricParallelWallSeconds.With(mode).Add(wall.Seconds())
	if wall > 0 && workers > 0 {
		metricParallelSpeedup.With(mode).Set(busy.Seconds() / wall.Seconds())
		metricParallelUtilization.With(mode).Set(busy.Seconds() / (wall.Seconds() * float64(workers)))
	}
}
