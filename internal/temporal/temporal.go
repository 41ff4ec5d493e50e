// Package temporal implements Temporal Shapley (paper §5.1): demand-aware
// attribution of fixed carbon costs (embodied carbon and static operational
// carbon) across time. Each time period is a player in a peak game — its
// payoff is the peak resource demand inside the period — and the Shapley
// value of that game decides how much of the period's carbon budget each
// sub-period carries. Applying this hierarchically from coarse to fine
// granularity (e.g. 30 days -> 3 days -> 8 h -> 1 h -> 5 min with split
// ratios 10, 9, 8, 12) yields a dynamic embodied carbon intensity signal in
// gCO2e per resource-second at the finest granularity, at polynomial cost
// (Eq. 7's closed form) instead of the exponential cost of treating every
// workload as a player.
package temporal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"fairco2/internal/shapley"
	"fairco2/internal/timeseries"
	"fairco2/internal/units"
)

// Backend selects how each level's peak-game Shapley value is computed.
type Backend int

const (
	// ClosedForm uses the O(M log M) airport-game formula (Eq. 7).
	ClosedForm Backend = iota
	// NaiveSubset enumerates all 2^M coalitions (Eq. 4). It exists for
	// the ablation benchmark and as a cross-check; results are identical.
	NaiveSubset
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case ClosedForm:
		return "closed-form"
	case NaiveSubset:
		return "naive-subset"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// Config parameterizes a Temporal Shapley attribution.
type Config struct {
	// SplitRatios lists the hierarchical fan-out at each level. Their
	// product must equal the number of samples in the demand series, so
	// the finest period is one sample. The paper's running example uses
	// {10, 9, 8, 12} over a 30-day, 5-minute series (8640 samples).
	SplitRatios []int
	// Backend selects the per-level solver (default ClosedForm).
	Backend Backend
	// Parallelism bounds how many top-level periods are attributed
	// concurrently: 0 means GOMAXPROCS, 1 keeps the serial recursion,
	// n > 1 uses n workers. The signal is identical for any value —
	// periods are independent sub-problems writing disjoint ranges of
	// the output, so parallelism never changes a single arithmetic
	// operation, only their interleaving.
	Parallelism int
}

// PaperSplits is the split schedule from the paper's Figure 4 walkthrough:
// 30 days -> 3 days -> 8 hours -> 1 hour -> 5 minutes.
func PaperSplits() []int { return []int{10, 9, 8, 12} }

// IntensitySignal attributes the carbon budget over the demand series and
// returns the resulting carbon-intensity signal: one value per demand
// sample, in gCO2e per resource-second, such that
//
//	sum_i intensity[i] * demand[i] * step == budget.
//
// The demand series must be non-negative with positive total resource-time.
func IntensitySignal(demand *timeseries.Series, budget units.GramsCO2e, cfg Config) (*timeseries.Series, error) {
	if err := validateSignal(demand, budget, cfg); err != nil {
		return nil, err
	}
	workers := cfg.Parallelism
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	a := attributor{demand: demand, backend: cfg.Backend, workers: workers, arena: newAttrArena(cfg.SplitRatios)}
	intensity := make([]float64, demand.Len())
	if err := a.attribute(0, demand.Len(), float64(budget), cfg.SplitRatios, intensity); err != nil {
		return nil, err
	}
	return timeseries.New(demand.Start, demand.Step, intensity), nil
}

// validateSignal checks the shared IntensitySignal arguments.
func validateSignal(demand *timeseries.Series, budget units.GramsCO2e, cfg Config) error {
	if demand == nil || demand.Len() == 0 {
		return errors.New("temporal: empty demand series")
	}
	if budget < 0 {
		return fmt.Errorf("temporal: negative carbon budget %v", budget)
	}
	product := 1
	for i, m := range cfg.SplitRatios {
		if m < 1 {
			return fmt.Errorf("temporal: split ratio %d at level %d must be >= 1", m, i)
		}
		if m > shapley.MaxExactPlayers && cfg.Backend == NaiveSubset {
			return fmt.Errorf("temporal: naive backend cannot handle split ratio %d (max %d)", m, shapley.MaxExactPlayers)
		}
		product *= m
	}
	if product != demand.Len() {
		return fmt.Errorf("temporal: split ratios multiply to %d but demand has %d samples", product, demand.Len())
	}
	for i, v := range demand.Values {
		if v < 0 {
			return fmt.Errorf("temporal: negative demand %v at sample %d", v, i)
		}
	}
	if demand.Integral() == 0 {
		return errors.New("temporal: demand series has zero total resource-time, nothing to attribute to")
	}
	return nil
}

type attributor struct {
	demand  *timeseries.Series
	backend Backend
	workers int       // top-level chunk concurrency; recursion below runs serial
	arena   attrArena // per-level scratch, owned by this attributor's walk
}

// attrArena preallocates the per-level scratch the attribution recursion
// needs (chunk peaks, resource-times, Shapley values, shares and the
// solver's sort scratch), so a walk re-attributes ranges without heap
// allocation. Levels are laid out deepest first: the level whose remaining
// split schedule is splits starts at the summed size of splits[1:], so an
// arena sized for a schedule also serves every suffix of it (fan-out
// workers, delta updates). The arena is single-walker state: every
// concurrent walk gets its own.
type attrArena struct {
	fs []float64 // per level: peaks, qs, phi and shares, m each
	is []int     // per level: sort scratch, m
}

func newAttrArena(splits []int) attrArena {
	total := 0
	for _, m := range splits {
		total += m
	}
	return attrArena{fs: make([]float64, 4*total), is: make([]int, total)}
}

// scratch returns the slices of the level whose remaining split schedule
// is splits.
func (ar attrArena) scratch(splits []int) (peaks, qs, phi, shares []float64, idx []int) {
	off := 0
	for _, m := range splits[1:] {
		off += m
	}
	m := splits[0]
	f := ar.fs[4*off : 4*(off+m)]
	return f[:m], f[m : 2*m], f[2*m : 3*m], f[3*m:], ar.is[off : off+m]
}

// attribute divides budget over samples [lo, hi) of the demand series: level
// cuts the range into splits[0] equal chunks and shares the budget out over
// them, and each chunk's share is divided the same way over the remaining
// splits.
func (a *attributor) attribute(lo, hi int, budget float64, splits []int, intensity []float64) error {
	if budget == 0 {
		return nil // zero-demand range received a zero share; intensity stays 0
	}
	if len(splits) == 0 {
		// Finest granularity: a single sample per period.
		if hi-lo != 1 {
			return fmt.Errorf("temporal: internal error, %d samples left at finest level", hi-lo)
		}
		q := a.demand.Values[lo] * float64(a.demand.Step)
		if q == 0 {
			return fmt.Errorf("temporal: internal error, positive budget %v assigned to zero-demand sample %d", budget, lo)
		}
		intensity[lo] = budget / q
		return nil
	}

	m := splits[0]
	width := (hi - lo) / m
	_, _, _, shares, _ := a.arena.scratch(splits)
	if err := a.level(a.demand.Values, splits, lo, width, budget, shares); err != nil {
		return err
	}
	if workers := min(a.workers, m); workers > 1 {
		return a.fanOut(lo, width, shares, workers, splits, intensity)
	}
	for k := 0; k < m; k++ {
		if err := a.attribute(lo+k*width, lo+(k+1)*width, shares[k], splits[1:], intensity); err != nil {
			return err
		}
	}
	return nil
}

// level is one level of Eq. 5: it cuts values[lo:lo+m*width) into the
// m = splits[0] chunks and writes chunk k's share of budget into shares[k],
//
//	share_k = phi_k q_k / sum_j phi_j q_j * budget,
//
// where phi is the peak-game Shapley value over the chunk peaks and q_k the
// chunk's resource-time. The recursion and the delta engine's top-level
// check both run it, so the shares always sum to the budget the same way.
func (a *attributor) level(values []float64, splits []int, lo, width int, budget float64, shares []float64) error {
	peaks, qs, phi, _, idx := a.arena.scratch(splits)
	m := splits[0]
	step := float64(a.demand.Step)
	for k := 0; k < m; k++ {
		clo := lo + k*width
		peak, q := 0.0, 0.0
		for i := clo; i < clo+width; i++ {
			v := values[i]
			if v > peak {
				peak = v
			}
			q += v
		}
		peaks[k] = peak
		qs[k] = q * step
	}
	var err error
	if a.backend == NaiveSubset {
		var naive []float64
		if naive, err = shapley.PeakGameNaive(peaks); err == nil {
			copy(phi, naive)
		}
	} else {
		// Bitwise-identical to PeakGame: tied peaks contribute
		// zero-height increments, so sort-order differences on ties
		// cannot move a bit.
		err = shapley.PeakGameInto(peaks, phi, idx)
	}
	if err != nil {
		return fmt.Errorf("temporal: level with %d periods: %w", m, err)
	}
	denom := 0.0
	for k, p := range phi {
		denom += p * qs[k]
	}
	if denom == 0 {
		return fmt.Errorf("temporal: internal error, positive budget %v over zero-demand range [%d, %d)", budget, lo, lo+m*width)
	}
	for k, p := range phi {
		shares[k] = p * qs[k] / denom * budget
	}
	return nil
}

// fanOut recurses into the level's chunks concurrently, each worker with
// its own serial attributor and arena. Chunks are independent and write
// disjoint intensity ranges, so this never changes a single arithmetic
// operation, only their interleaving. Only the first level fans out,
// keeping goroutine count bounded by the Parallelism knob rather than the
// tree's fan-out.
func (a *attributor) fanOut(lo, width int, shares []float64, workers int, splits []int, intensity []float64) error {
	m := splits[0]
	errs := make([]error, m)
	// Built outside the goroutines, so their closure does not capture a.
	proto := attributor{demand: a.demand, backend: a.backend, workers: 1}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sub := proto
			sub.arena = newAttrArena(splits[1:])
			for k := m * w / workers; k < m*(w+1)/workers; k++ {
				errs[k] = sub.attribute(lo+k*width, lo+(k+1)*width, shares[k], splits[1:], intensity)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// AttributeUsage returns the carbon attributed to a workload whose resource
// usage over time is given by usage (same units as the demand the intensity
// signal was derived from), under the carbon-intensity signal: the integral
// of usage(t) * intensity(t). The two series must be aligned.
func AttributeUsage(intensity, usage *timeseries.Series) (units.GramsCO2e, error) {
	if intensity == nil || usage == nil {
		return 0, errors.New("temporal: nil series")
	}
	if intensity.Start != usage.Start || intensity.Step != usage.Step || intensity.Len() != usage.Len() {
		return 0, errors.New("temporal: intensity and usage series must be aligned")
	}
	total := 0.0
	for i := range usage.Values {
		total += usage.Values[i] * intensity.Values[i]
	}
	return units.GramsCO2e(total * float64(usage.Step)), nil
}

// FlatIntensity returns the demand-agnostic intensity signal of the RUP/SCI
// baseline: the budget spread uniformly over total resource-time, so every
// resource-second costs the same regardless of when it occurs.
func FlatIntensity(demand *timeseries.Series, budget units.GramsCO2e) (*timeseries.Series, error) {
	if demand == nil || demand.Len() == 0 {
		return nil, errors.New("temporal: empty demand series")
	}
	q := demand.Integral()
	if q <= 0 {
		return nil, errors.New("temporal: demand series has zero total resource-time")
	}
	rate := float64(budget) / q
	values := make([]float64, demand.Len())
	for i := range values {
		values[i] = rate
	}
	return timeseries.New(demand.Start, demand.Step, values), nil
}

// DemandProportionalIntensity returns the demand-proportional baseline
// signal evaluated in §7.1: intensity at each instant is directly
// proportional to demand, normalized so the budget is fully attributed.
func DemandProportionalIntensity(demand *timeseries.Series, budget units.GramsCO2e) (*timeseries.Series, error) {
	if demand == nil || demand.Len() == 0 {
		return nil, errors.New("temporal: empty demand series")
	}
	denom := 0.0
	for _, v := range demand.Values {
		if v < 0 {
			return nil, errors.New("temporal: negative demand")
		}
		denom += v * v
	}
	denom *= float64(demand.Step)
	if denom == 0 {
		return nil, errors.New("temporal: demand series has zero total resource-time")
	}
	values := make([]float64, demand.Len())
	for i, v := range demand.Values {
		values[i] = v / denom * float64(budget)
	}
	return timeseries.New(demand.Start, demand.Step, values), nil
}
