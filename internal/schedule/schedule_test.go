package schedule

import (
	"math"
	"math/rand"
	"testing"

	"fairco2/internal/units"
)

// twoSliceSchedule: w0 uses 8 cores in slice 0, w1 uses 16 in both slices.
func twoSliceSchedule() *Schedule {
	return &Schedule{
		Slices:        2,
		SliceDuration: 3600,
		Workloads: []Workload{
			{ID: 0, Cores: 8, Start: 0, Duration: 1},
			{ID: 1, Cores: 16, Start: 0, Duration: 2},
		},
	}
}

func TestWorkloadBasics(t *testing.T) {
	w := Workload{ID: 0, Cores: 8, Start: 2, Duration: 3}
	if w.End() != 5 {
		t.Errorf("End = %d", w.End())
	}
	if w.RunsAt(1) || !w.RunsAt(2) || !w.RunsAt(4) || w.RunsAt(5) {
		t.Error("RunsAt boundaries wrong")
	}
}

func TestValidate(t *testing.T) {
	s := twoSliceSchedule()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Schedule){
		func(s *Schedule) { s.Slices = 0 },
		func(s *Schedule) { s.SliceDuration = 0 },
		func(s *Schedule) { s.Workloads = nil },
		func(s *Schedule) { s.Workloads[1].ID = 5 },
		func(s *Schedule) { s.Workloads[0].Cores = 0 },
		func(s *Schedule) { s.Workloads[0].Start = -1 },
		func(s *Schedule) { s.Workloads[0].Duration = 0 },
		func(s *Schedule) { s.Workloads[1].Duration = 3 },
		// Start+Duration overflows to a negative end.
		func(s *Schedule) { s.Workloads[1].Start, s.Workloads[1].Duration = 1, math.MaxInt },
	}
	for i, mutate := range bad {
		s := twoSliceSchedule()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestDemandAndPeak(t *testing.T) {
	s := twoSliceSchedule()
	d := s.Demand()
	if d.Values[0] != 24 || d.Values[1] != 16 {
		t.Errorf("Demand = %v", d.Values)
	}
	if s.Peak() != 24 {
		t.Errorf("Peak = %v", s.Peak())
	}
	d1 := s.DemandOf(1)
	if d1.Values[0] != 16 || d1.Values[1] != 16 {
		t.Errorf("DemandOf(1) = %v", d1.Values)
	}
}

func TestCoreSeconds(t *testing.T) {
	s := twoSliceSchedule()
	if got := s.CoreSeconds(0); got != units.CoreSeconds(8*3600) {
		t.Errorf("CoreSeconds(0) = %v", got)
	}
	if got := s.CoreSeconds(1); got != units.CoreSeconds(16*2*3600) {
		t.Errorf("CoreSeconds(1) = %v", got)
	}
	if got := s.TotalCoreSeconds(); got != units.CoreSeconds((8+32)*3600) {
		t.Errorf("TotalCoreSeconds = %v", got)
	}
}

func TestPeakOfSubset(t *testing.T) {
	s := twoSliceSchedule()
	if got := s.PeakOfSubset(0); got != 0 {
		t.Errorf("empty subset peak = %v", got)
	}
	if got := s.PeakOfSubset(0b01); got != 8 {
		t.Errorf("subset {0} peak = %v", got)
	}
	if got := s.PeakOfSubset(0b10); got != 16 {
		t.Errorf("subset {1} peak = %v", got)
	}
	if got := s.PeakOfSubset(0b11); got != 24 {
		t.Errorf("full subset peak = %v", got)
	}
}

func TestConcurrencyAt(t *testing.T) {
	s := twoSliceSchedule()
	if s.ConcurrencyAt(0) != 2 || s.ConcurrencyAt(1) != 1 {
		t.Error("concurrency counts wrong")
	}
}

func TestFigure1SamePeakDifferentShapes(t *testing.T) {
	// Paper Figure 1: different demand curves with identical peak need
	// the same minimum capacity.
	flat := &Schedule{Slices: 3, SliceDuration: 1, Workloads: []Workload{
		{ID: 0, Cores: 48, Start: 0, Duration: 3},
	}}
	spike := &Schedule{Slices: 3, SliceDuration: 1, Workloads: []Workload{
		{ID: 0, Cores: 16, Start: 0, Duration: 3},
		{ID: 1, Cores: 32, Start: 1, Duration: 1},
	}}
	ramp := &Schedule{Slices: 3, SliceDuration: 1, Workloads: []Workload{
		{ID: 0, Cores: 16, Start: 0, Duration: 3},
		{ID: 1, Cores: 16, Start: 1, Duration: 2},
		{ID: 2, Cores: 16, Start: 2, Duration: 1},
	}}
	if flat.Peak() != 48 || spike.Peak() != 48 || ramp.Peak() != 48 {
		t.Errorf("peaks differ: %v %v %v", flat.Peak(), spike.Peak(), ramp.Peak())
	}
	// ...while total resource-time differs.
	if flat.TotalCoreSeconds() == spike.TotalCoreSeconds() {
		t.Error("shapes should differ in resource-time")
	}
}

func TestGeneratorConfigValidate(t *testing.T) {
	if err := DefaultGeneratorConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*GeneratorConfig){
		func(c *GeneratorConfig) { c.MinSlices = 0 },
		func(c *GeneratorConfig) { c.MaxSlices = c.MinSlices - 1 },
		func(c *GeneratorConfig) { c.MinConcurrent = 0 },
		func(c *GeneratorConfig) { c.MaxConcurrent = 0 },
		func(c *GeneratorConfig) { c.CoreChoices = nil },
		func(c *GeneratorConfig) { c.CoreChoices = []int{0} },
		func(c *GeneratorConfig) { c.MinDuration = 0 },
		func(c *GeneratorConfig) { c.MaxDuration = 0 },
		func(c *GeneratorConfig) { c.MaxWorkloads = 0 },
		func(c *GeneratorConfig) { c.SliceDuration = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultGeneratorConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
}

func TestGenerateRespectsConfig(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	rng := rand.New(rand.NewSource(42))
	coreSet := map[int]bool{}
	for _, c := range cfg.CoreChoices {
		coreSet[c] = true
	}
	for trial := 0; trial < 200; trial++ {
		s, err := Generate(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if s.Slices < cfg.MinSlices || s.Slices > cfg.MaxSlices {
			t.Fatalf("slices %d outside [%d, %d]", s.Slices, cfg.MinSlices, cfg.MaxSlices)
		}
		if len(s.Workloads) > cfg.MaxWorkloads {
			t.Fatalf("%d workloads exceed cap %d", len(s.Workloads), cfg.MaxWorkloads)
		}
		for _, w := range s.Workloads {
			if !coreSet[w.Cores] {
				t.Fatalf("cores %d not in choices", w.Cores)
			}
			if w.Duration < cfg.MinDuration || w.Duration > cfg.MaxDuration {
				t.Fatalf("duration %d outside bounds", w.Duration)
			}
		}
		for slice := 0; slice < s.Slices; slice++ {
			if c := s.ConcurrencyAt(slice); c > cfg.MaxConcurrent {
				t.Fatalf("slice %d has %d concurrent workloads, cap %d", slice, c, cfg.MaxConcurrent)
			}
		}
	}
}

func TestGenerateCoversEverySliceWhenUncapped(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.MaxWorkloads = 1000 // effectively uncapped
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		s, err := Generate(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		for slice := 0; slice < s.Slices; slice++ {
			if s.ConcurrencyAt(slice) < cfg.MinConcurrent {
				t.Fatalf("slice %d below min concurrency", slice)
			}
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	a, err := Generate(cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Slices != b.Slices || len(a.Workloads) != len(b.Workloads) {
		t.Fatal("same seed should reproduce the schedule")
	}
	for i := range a.Workloads {
		if a.Workloads[i] != b.Workloads[i] {
			t.Fatal("same seed should reproduce workloads exactly")
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	if _, err := Generate(cfg, nil); err == nil {
		t.Error("nil rng should error")
	}
	cfg.MinSlices = 0
	if _, err := Generate(cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid config should error")
	}
}

func TestPeakSubsetMonotone(t *testing.T) {
	// Peak is monotone: adding a workload never lowers the subset peak.
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultGeneratorConfig()
	cfg.MaxWorkloads = 10
	for trial := 0; trial < 20; trial++ {
		s, err := Generate(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		n := len(s.Workloads)
		full := uint64(1)<<uint(n) - 1
		for probe := 0; probe < 50; probe++ {
			mask := rng.Uint64() & full
			sub := mask & rng.Uint64()
			a, b := s.PeakOfSubset(sub), s.PeakOfSubset(mask)
			if a > b+1e-9 {
				t.Fatalf("peak not monotone: subset %v > superset %v", a, b)
			}
			if math.IsNaN(a) || math.IsNaN(b) {
				t.Fatal("NaN peak")
			}
		}
	}
}
