#!/usr/bin/env bash
# Reproduce every table and figure of the paper, saving console outputs
# and per-trial CSVs under results/. Defaults to the paper's full trial
# counts (about two minutes total on a modern multicore machine); pass
# LIGHT=1 for a quick laptop pass.
set -euo pipefail
cd "$(dirname "$0")/.."

RESULTS=results
mkdir -p "$RESULTS"

TRIALS_DEMAND=10000
TRIALS_COLOC=10000
MAX_WORKLOADS_DEMAND=22
MAX_WORKLOADS_COLOC=100
if [[ "${LIGHT:-0}" == "1" ]]; then
  TRIALS_DEMAND=1000
  TRIALS_COLOC=1000
  MAX_WORKLOADS_DEMAND=14
  MAX_WORKLOADS_COLOC=60
fi

echo "== Table 1 =="
go run ./cmd/fairco2 -table1 | tee "$RESULTS/table1.txt"

echo "== Figure 2: colocation characterization =="
go run ./cmd/colocation-profile -profiles | tee "$RESULTS/figure2.txt"

echo "== Figures 4, 5, 11: signal + forecasting =="
go run ./cmd/forecast-eval -signal | tee "$RESULTS/figures_4_5_11.txt"

echo "== Figure 7: dynamic-demand Monte Carlo ($TRIALS_DEMAND trials) =="
go run ./cmd/mc-demand -trials "$TRIALS_DEMAND" -max-workloads "$MAX_WORKLOADS_DEMAND" \
  -out "$RESULTS/figure7_trials.csv" | tee "$RESULTS/figure7.txt"

echo "== Figures 8-9: colocation Monte Carlo ($TRIALS_COLOC trials) =="
go run ./cmd/mc-colocation -trials "$TRIALS_COLOC" -max-workloads "$MAX_WORKLOADS_COLOC" \
  -per-workload -out "$RESULTS/figure8_trials.csv" | tee "$RESULTS/figures_8_9.txt"

echo "== Figures 10, 12, 13: workload optimization =="
go run ./cmd/optimize | tee "$RESULTS/figures_10_12_13.txt"

echo "== Fairness axioms =="
go run ./cmd/fairco2 -axioms | tee "$RESULTS/axioms.txt"

echo "== End-to-end cluster pipeline =="
go run ./cmd/cluster-sim | tee "$RESULTS/cluster_sim.txt"

echo "== Incremental delta attribution speedup =="
{
  go test -run '^$' -bench '^BenchmarkDeltaApply$' -benchtime 100x -count 1 ./internal/shapley/
  go test -run '^$' -bench '^BenchmarkTemporalDelta$' -benchtime 100x -count 1 ./internal/temporal/
} | tee "$RESULTS/delta_bench_raw.txt"
awk '
  $1 ~ /^BenchmarkDeltaApply\/delta-1p(-[0-9]+)?$/            { shd = $3 }
  $1 ~ /^BenchmarkDeltaApply\/scratch-build-table(-[0-9]+)?$/ { shs = $3 }
  $1 ~ /^BenchmarkDeltaApply\/scratch-incremental(-[0-9]+)?$/ { shi = $3 }
  $1 ~ /^BenchmarkTemporalDelta\/delta-reshape(-[0-9]+)?$/    { td = $3 }
  $1 ~ /^BenchmarkTemporalDelta\/fresh-rebuild(-[0-9]+)?$/    { tf = $3 }
  END {
    printf "shapley delta apply (1-player change, n=16): %.0f ns vs scratch per-mask BuildGameTable %.0f ns -> %.1fx\n", shd, shs, shs/shd
    printf "shapley delta apply vs scratch incremental build %.0f ns -> %.1fx\n", shi, shi/shd
    printf "temporal delta reshape (1 of 10 periods): %.0f ns vs fresh IntensitySignal %.0f ns -> %.1fx\n", td, tf, tf/td
  }
' "$RESULTS/delta_bench_raw.txt" | tee "$RESULTS/delta_speedup.txt"

echo "== Streaming attribution replay (windowed temporal Shapley) =="
go run ./cmd/attribution-server -stream-once \
  -stream-scenario 'burst:21600,7200,1.8;outage:50400,3600,5000' \
  -stream-disorder 0.05 -stream-max-defer 12 | tee "$RESULTS/stream_replay.txt"

echo "== Cluster scaling: 1 -> 4 attribution replicas =="
# Throughput is admission capacity over a fixed synthetic service time,
# so the 1->4 replica curve reproduces on any host, single-core included.
go run ./cmd/cluster-load -replicas 1,2,4 | tee "$RESULTS/cluster_scaling.txt"

echo "== Self-healing cluster chaos: kill/flap/restart under load =="
# Kills one replica mid-load, latency-spikes another, restarts the victim,
# and requires zero lost requests beyond shed-and-retry plus post-recovery
# answers bitwise-identical to a single-process oracle.
go run ./cmd/cluster-chaos -duration 3s | tee "$RESULTS/cluster_chaos.txt"

echo "== Multi-region placement: cross-region sweep vs stay-home baseline =="
# Discovers a three-provider, eight-region fleet from the seed, prices
# every region's carbon per core-second (regional grid mix x PUE x
# embodied amortization), and prints the Pareto front of migrations vs
# total fleet carbon. Deterministic in the seed.
go run ./cmd/optimize -placement -region-seed 1 | tee "$RESULTS/multiregion_placement.txt"

echo
echo "All outputs are under $RESULTS/."
