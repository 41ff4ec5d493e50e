// Package schedule represents dynamic-demand workload schedules: a window
// of discrete time slices in which workloads occupy CPU cores. It is the
// substrate of the paper's dynamic-demand Monte Carlo evaluation (§6.3):
// randomly generated schedules with 4-9 time slices, 1-5 concurrent
// workloads per slice, 8-96 cores per workload and 1-3 slice runtimes.
package schedule

import (
	"errors"
	"fmt"
	"math/rand"

	"fairco2/internal/timeseries"
	"fairco2/internal/units"
)

// Workload is one entry of a schedule: a core allocation over a contiguous
// range of time slices.
type Workload struct {
	// ID indexes the workload within its schedule.
	ID int
	// Cores is the CPU core allocation.
	Cores int
	// Start is the first occupied time slice.
	Start int
	// Duration is the number of occupied slices.
	Duration int
}

// End returns the first slice index after the workload finishes.
func (w Workload) End() int { return w.Start + w.Duration }

// RunsAt reports whether the workload occupies slice t.
func (w Workload) RunsAt(t int) bool { return t >= w.Start && t < w.End() }

// Schedule is a set of workloads over a window of uniform time slices.
type Schedule struct {
	// Slices is the number of time slices in the window.
	Slices int
	// SliceDuration is the wall-clock length of one slice.
	SliceDuration units.Seconds
	// Workloads lists the scheduled workloads; IDs are dense from 0.
	Workloads []Workload
}

// Validate checks internal consistency.
func (s *Schedule) Validate() error {
	if s.Slices < 1 {
		return errors.New("schedule: needs at least one slice")
	}
	if s.SliceDuration <= 0 {
		return errors.New("schedule: slice duration must be positive")
	}
	if len(s.Workloads) == 0 {
		return errors.New("schedule: needs at least one workload")
	}
	for i, w := range s.Workloads {
		switch {
		case w.ID != i:
			return fmt.Errorf("schedule: workload %d has ID %d, want dense IDs", i, w.ID)
		case w.Cores <= 0:
			return fmt.Errorf("schedule: workload %d has non-positive cores", i)
		case w.Start < 0 || w.Duration < 1 || w.Duration > s.Slices-w.Start:
			return fmt.Errorf("schedule: workload %d runs [%d, %d) outside window [0, %d)", i, w.Start, w.End(), s.Slices)
		}
	}
	return nil
}

// Demand returns the total core demand per slice.
func (s *Schedule) Demand() *timeseries.Series {
	values := make([]float64, s.Slices)
	for _, w := range s.Workloads {
		for t := w.Start; t < w.End(); t++ {
			values[t] += float64(w.Cores)
		}
	}
	return timeseries.New(0, s.SliceDuration, values)
}

// DemandOf returns workload i's core demand per slice.
func (s *Schedule) DemandOf(i int) *timeseries.Series {
	values := make([]float64, s.Slices)
	w := s.Workloads[i]
	for t := w.Start; t < w.End(); t++ {
		values[t] = float64(w.Cores)
	}
	return timeseries.New(0, s.SliceDuration, values)
}

// Peak returns the peak total core demand — the minimum core capacity that
// must be provisioned to run the schedule (Figure 1's dashed line).
func (s *Schedule) Peak() float64 { return s.Demand().Peak() }

// CoreSeconds returns workload i's total resource-time.
func (s *Schedule) CoreSeconds(i int) units.CoreSeconds {
	w := s.Workloads[i]
	return units.CoreSeconds(float64(w.Cores) * float64(w.Duration) * float64(s.SliceDuration))
}

// TotalCoreSeconds returns the schedule's total resource-time.
func (s *Schedule) TotalCoreSeconds() units.CoreSeconds {
	total := units.CoreSeconds(0)
	for i := range s.Workloads {
		total += s.CoreSeconds(i)
	}
	return total
}

// PeakOfSubset returns the peak demand of the workload subset given as a
// bitmask — the characteristic function of the ground-truth embodied game.
func (s *Schedule) PeakOfSubset(mask uint64) float64 {
	peak := 0.0
	for t := 0; t < s.Slices; t++ {
		demand := 0.0
		for i, w := range s.Workloads {
			if mask&(1<<uint(i)) != 0 && w.RunsAt(t) {
				demand += float64(w.Cores)
			}
		}
		if demand > peak {
			peak = demand
		}
	}
	return peak
}

// ConcurrencyAt returns the number of workloads running in slice t.
func (s *Schedule) ConcurrencyAt(t int) int {
	n := 0
	for _, w := range s.Workloads {
		if w.RunsAt(t) {
			n++
		}
	}
	return n
}

// GeneratorConfig parameterizes random schedule generation. The zero value
// is not valid; use DefaultGeneratorConfig.
type GeneratorConfig struct {
	// MinSlices and MaxSlices bound the schedule length (paper: 4-9).
	MinSlices, MaxSlices int
	// MinConcurrent and MaxConcurrent bound per-slice workload counts
	// (paper: 1-5).
	MinConcurrent, MaxConcurrent int
	// CoreChoices are the allowed core allocations (paper: 8..96).
	CoreChoices []int
	// MinDuration and MaxDuration bound workload runtimes in slices
	// (paper: 1-3).
	MinDuration, MaxDuration int
	// MaxWorkloads caps the schedule's total workload count (the paper
	// caps at 22 to keep the exact Shapley ground truth tractable).
	MaxWorkloads int
	// SliceDuration is the wall-clock length of a slice.
	SliceDuration units.Seconds
}

// DefaultGeneratorConfig returns the paper's §6.3 parameters, except that
// MaxWorkloads defaults to 14 so the exact ground truth stays fast; pass
// 22 to restore paper scale.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		MinSlices:     4,
		MaxSlices:     9,
		MinConcurrent: 1,
		MaxConcurrent: 5,
		CoreChoices:   []int{8, 16, 32, 48, 64, 80, 96},
		MinDuration:   1,
		MaxDuration:   3,
		MaxWorkloads:  14,
		SliceDuration: units.SecondsPerHour,
	}
}

// Validate checks the generator configuration.
func (c GeneratorConfig) Validate() error {
	switch {
	case c.MinSlices < 1 || c.MaxSlices < c.MinSlices:
		return errors.New("schedule: invalid slice bounds")
	case c.MinConcurrent < 1 || c.MaxConcurrent < c.MinConcurrent:
		return errors.New("schedule: invalid concurrency bounds")
	case len(c.CoreChoices) == 0:
		return errors.New("schedule: no core choices")
	case c.MinDuration < 1 || c.MaxDuration < c.MinDuration:
		return errors.New("schedule: invalid duration bounds")
	case c.MaxWorkloads < 1:
		return errors.New("schedule: max workloads must be positive")
	case c.SliceDuration <= 0:
		return errors.New("schedule: slice duration must be positive")
	}
	for _, cores := range c.CoreChoices {
		if cores < 1 {
			return errors.New("schedule: core choices must be positive")
		}
	}
	return nil
}

// Generate produces a random schedule: it draws a slice count and a target
// concurrency per slice, then sweeps the window left to right, adding
// workloads (random cores, random duration) wherever the running count is
// below the slice's target, until the workload cap is reached.
func Generate(cfg GeneratorConfig, rng *rand.Rand) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("schedule: nil rng")
	}
	slices := randBetween(rng, cfg.MinSlices, cfg.MaxSlices)
	targets := make([]int, slices)
	for t := range targets {
		targets[t] = randBetween(rng, cfg.MinConcurrent, cfg.MaxConcurrent)
	}
	concurrency := make([]int, slices)
	s := &Schedule{Slices: slices, SliceDuration: cfg.SliceDuration}
	for t := 0; t < slices && len(s.Workloads) < cfg.MaxWorkloads; t++ {
		for concurrency[t] < targets[t] && len(s.Workloads) < cfg.MaxWorkloads {
			maxDur := cfg.MaxDuration
			if rem := slices - t; rem < maxDur {
				maxDur = rem
			}
			minDur := cfg.MinDuration
			if minDur > maxDur {
				minDur = maxDur
			}
			w := Workload{
				ID:       len(s.Workloads),
				Cores:    cfg.CoreChoices[rng.Intn(len(cfg.CoreChoices))],
				Start:    t,
				Duration: randBetween(rng, minDur, maxDur),
			}
			s.Workloads = append(s.Workloads, w)
			for u := w.Start; u < w.End(); u++ {
				concurrency[u]++
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("schedule: generator produced invalid schedule: %w", err)
	}
	return s, nil
}

func randBetween(rng *rand.Rand, lo, hi int) int {
	return lo + rng.Intn(hi-lo+1)
}
