// Package attribution implements the four embodied-carbon attribution
// methods the paper evaluates on dynamic-demand schedules (§6.3, Figure 7),
// behind a common interface:
//
//   - GroundTruth: exact Shapley value with workloads as players and the
//     peak-demand characteristic function (§4) — embodied carbon scales
//     with the minimum capacity that must be provisioned, which is the
//     schedule's peak demand.
//   - RUPBaseline: resource-allocation-time proportional (Google + SCI, §3).
//   - DemandProportional: carbon intensity proportional to instantaneous
//     demand (the demand-aware baseline of §7.1).
//   - TemporalShapley: Fair-CO2's hierarchical time-period Shapley (§5.1).
//
// All methods fully attribute the same budget (the Shapley efficiency
// property), so deviations measure distributional fairness.
package attribution

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"fairco2/internal/checkpoint"
	"fairco2/internal/schedule"
	"fairco2/internal/shapley"
	"fairco2/internal/temporal"
	"fairco2/internal/timeseries"
	"fairco2/internal/units"
)

// Method attributes a fixed carbon budget across a schedule's workloads.
type Method interface {
	// Name identifies the method in reports.
	Name() string
	// Attribute returns per-workload carbon in gCO2e, summing to budget.
	Attribute(s *schedule.Schedule, budget units.GramsCO2e) ([]float64, error)
}

func validate(s *schedule.Schedule, budget units.GramsCO2e) error {
	if s == nil {
		return errors.New("attribution: nil schedule")
	}
	if err := s.Validate(); err != nil {
		return err
	}
	if budget < 0 {
		return fmt.Errorf("attribution: negative budget %v", budget)
	}
	return nil
}

// GroundTruth is the exact Shapley attribution with workloads as players.
type GroundTruth struct {
	// Parallelism selects the coalition-enumeration worker count: 0
	// (the zero value) auto-sizes to GOMAXPROCS, 1 runs serially, n > 1
	// uses n workers. Workloads demand integer cores, so every coalition
	// peak is exact and the attribution is identical for any setting.
	Parallelism int
}

// Name implements Method.
func (GroundTruth) Name() string { return "ground-truth-shapley" }

// DemandPeakGame returns the incremental coalition-peak game of s: each
// call of the game allocates a fresh demand scratch buffer that add/remove
// update, and value recomputes its peak in O(slices), so parallel
// enumeration gets independent state per block. Workload demands are
// integer cores, so the incremental arithmetic is exact and every
// enumeration order — including the delta engine's subcube walks — yields
// bitwise-identical coalition values.
func DemandPeakGame(s *schedule.Schedule) shapley.Game {
	return func() (add, remove func(int), value func() float64) {
		demand := make([]float64, s.Slices)
		add = func(i int) {
			w := s.Workloads[i]
			for t := w.Start; t < w.End(); t++ {
				demand[t] += float64(w.Cores)
			}
		}
		remove = func(i int) {
			w := s.Workloads[i]
			for t := w.Start; t < w.End(); t++ {
				demand[t] -= float64(w.Cores)
			}
		}
		value = func() float64 {
			peak := 0.0
			for _, d := range demand {
				if d > peak {
					peak = d
				}
			}
			return peak
		}
		return add, remove, value
	}
}

// Attribute implements Method. Complexity is O(2^n * (n + slices)); the
// schedule must have at most shapley.MaxExactPlayers workloads.
func (m GroundTruth) Attribute(s *schedule.Schedule, budget units.GramsCO2e) ([]float64, error) {
	return m.AttributeCheckpointed(context.Background(), s, budget, checkpoint.Spec{})
}

// AttributeCheckpointed is Attribute with context cancellation and
// crash-safe checkpoint/resume of the exact coalition-table build — the
// O(2^n) part that makes large ground-truth attributions multi-hour jobs.
// A zero ck builds in memory. The attribution is bitwise-identical to
// Attribute with the same Parallelism for any interruption pattern. The
// checkpoint directory must be dedicated to one (schedule, budget) pair;
// see shapley.BuildGameTable.
func (m GroundTruth) AttributeCheckpointed(ctx context.Context, s *schedule.Schedule, budget units.GramsCO2e, ck checkpoint.Spec) ([]float64, error) {
	defer observeRun(GroundTruth{}.Name(), time.Now())
	if err := validate(s, budget); err != nil {
		return nil, err
	}
	n := len(s.Workloads)
	table, err := shapley.BuildGameTable(ctx, n, DemandPeakGame(s), m.Parallelism, ck)
	if err != nil {
		return nil, err
	}
	phi, err := shapley.ExactFromTable(n, table, m.Parallelism)
	if err != nil {
		return nil, err
	}
	return NormalizeShares(phi, budget)
}

// NormalizeShares scales nonnegative Shapley values to sum to budget —
// the final step shared by every Shapley-backed method (and the delta
// query service, which re-derives shares from patched tables).
func NormalizeShares(phi []float64, budget units.GramsCO2e) ([]float64, error) {
	total := 0.0
	for _, v := range phi {
		total += v
	}
	if total <= 0 {
		return nil, errors.New("attribution: schedule has zero peak demand")
	}
	attr := make([]float64, len(phi))
	for i, v := range phi {
		attr[i] = v / total * float64(budget)
	}
	return attr, nil
}

// RUPBaseline attributes proportional to resource allocation over time
// (core-seconds), ignoring when the demand occurred.
type RUPBaseline struct{}

// Name implements Method.
func (RUPBaseline) Name() string { return "rup-baseline" }

// Attribute implements Method.
func (RUPBaseline) Attribute(s *schedule.Schedule, budget units.GramsCO2e) ([]float64, error) {
	defer observeRun(RUPBaseline{}.Name(), time.Now())
	if err := validate(s, budget); err != nil {
		return nil, err
	}
	total := float64(s.TotalCoreSeconds())
	if total <= 0 {
		return nil, errors.New("attribution: schedule has zero resource-time")
	}
	attr := make([]float64, len(s.Workloads))
	for i := range s.Workloads {
		attr[i] = float64(s.CoreSeconds(i)) / total * float64(budget)
	}
	return attr, nil
}

// DemandProportional attributes with a carbon intensity directly
// proportional to instantaneous total demand.
type DemandProportional struct{}

// Name implements Method.
func (DemandProportional) Name() string { return "demand-proportional" }

// Attribute implements Method.
func (DemandProportional) Attribute(s *schedule.Schedule, budget units.GramsCO2e) ([]float64, error) {
	defer observeRun(DemandProportional{}.Name(), time.Now())
	if err := validate(s, budget); err != nil {
		return nil, err
	}
	intensity, err := temporal.DemandProportionalIntensity(s.Demand(), budget)
	if err != nil {
		return nil, err
	}
	return AttributeByIntensity(s, intensity)
}

// TemporalShapley is Fair-CO2's attribution: a hierarchical time-period
// Shapley intensity signal, multiplied by each workload's usage.
type TemporalShapley struct {
	// Splits optionally overrides the hierarchical split schedule. When
	// empty, a single level over all slices is used (schedules in the
	// Monte Carlo evaluation have at most 9 slices, so one level is both
	// exact and cheap; multi-level splits matter for month-long traces).
	Splits []int
	// Parallelism is forwarded to temporal.Config: how many top-level
	// periods attribute concurrently (0 auto, 1 serial). The intensity
	// signal is identical for any setting.
	Parallelism int
}

// Name implements Method.
func (TemporalShapley) Name() string { return "fair-co2-temporal-shapley" }

// Attribute implements Method.
func (m TemporalShapley) Attribute(s *schedule.Schedule, budget units.GramsCO2e) ([]float64, error) {
	defer observeRun(m.Name(), time.Now())
	if err := validate(s, budget); err != nil {
		return nil, err
	}
	splits := m.Splits
	if len(splits) == 0 {
		splits = []int{s.Slices}
	}
	intensity, err := temporal.IntensitySignal(s.Demand(), budget, temporal.Config{SplitRatios: splits, Parallelism: m.Parallelism})
	if err != nil {
		return nil, err
	}
	return AttributeByIntensity(s, intensity)
}

// AttributeByIntensity integrates each workload's usage against a carbon
// intensity signal: workload i pays sum_t cores_i(t) * intensity(t) * dt.
// It is the common back half of every intensity-based method, exported so
// the delta query service can re-attribute under a patched signal.
func AttributeByIntensity(s *schedule.Schedule, intensity *timeseries.Series) ([]float64, error) {
	attr := make([]float64, len(s.Workloads))
	for i, w := range s.Workloads {
		total := 0.0
		for t := w.Start; t < w.End(); t++ {
			at := units.Seconds(float64(s.SliceDuration) * (float64(t) + 0.5))
			total += float64(w.Cores) * intensity.At(at) * float64(s.SliceDuration)
		}
		attr[i] = total
	}
	return attr, nil
}

// Deviations returns per-workload relative deviations |attr - gt| / gt.
// Ground-truth entries of zero with a nonzero attribution yield +Inf; zero
// against zero yields 0.
func Deviations(groundTruth, attributed []float64) ([]float64, error) {
	if len(groundTruth) != len(attributed) {
		return nil, fmt.Errorf("attribution: %d ground-truth vs %d attributed entries", len(groundTruth), len(attributed))
	}
	out := make([]float64, len(groundTruth))
	for i := range groundTruth {
		diff := math.Abs(attributed[i] - groundTruth[i])
		switch {
		case groundTruth[i] != 0:
			out[i] = diff / math.Abs(groundTruth[i])
		case diff == 0:
			out[i] = 0
		default:
			out[i] = math.Inf(1)
		}
	}
	return out, nil
}

// MeanDeviation returns the scenario's average relative deviation.
func MeanDeviation(groundTruth, attributed []float64) (float64, error) {
	devs, err := Deviations(groundTruth, attributed)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, d := range devs {
		sum += d
	}
	return sum / float64(len(devs)), nil
}

// WorstDeviation returns the scenario's maximum single-workload deviation —
// the paper's "least fair attribution for any one workload".
func WorstDeviation(groundTruth, attributed []float64) (float64, error) {
	devs, err := Deviations(groundTruth, attributed)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, d := range devs {
		if d > worst {
			worst = d
		}
	}
	return worst, nil
}
