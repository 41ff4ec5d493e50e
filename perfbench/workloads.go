package main

import (
	"fmt"
	"math/rand"
	"time"

	"fairco2/internal/schedule"
)

// workload is one traffic mix. Every input it sends derives from the
// seed argument; the servers receive only the generated schedule and
// requests.
type workload struct {
	name string
	// rate is the reference arrival rate in ops/s (Poisson, open loop).
	rate float64
	// cluster runs the load through a three-replica cluster.
	cluster bool
	// genConfig is the schedule generator configuration.
	genConfig func() schedule.GeneratorConfig
	// size, if set, is the exact workload count the schedule must have.
	size int
	// plan returns the warm-up ops (sent before timing, closed loop) and
	// a drawer that yields each timed op in arrival order.
	plan func(s *schedule.Schedule, rng *rand.Rand) (warm []op, draw func() op)
}

// The method names of the wire contract.
const (
	methodRUP                = "rup"
	methodDemandProportional = "demand-proportional"
	methodFairCO2            = "fair-co2"
	methodGroundTruth        = "ground-truth"
)

var methods = []string{methodRUP, methodDemandProportional, methodFairCO2, methodGroundTruth}

var endpoints = []string{"attribution", "share", "billing"}

// groundTruthMaxActive caps the workloads active in a period that a
// ground-truth read may ask for, keeping the exact Shapley engine in the
// sub-millisecond to millisecond range.
const groundTruthMaxActive = 12

var workloads = []*workload{
	{
		name:      "hot-dashboard",
		rate:      2000,
		genConfig: dashboardConfig,
		size:      dashboardSize,
		plan:      dashboardPlan,
	},
	{
		name: "cold-sweep",
		rate: 100,
		genConfig: func() schedule.GeneratorConfig {
			c := schedule.DefaultGeneratorConfig()
			c.MinSlices, c.MaxSlices = 96, 96
			c.MaxWorkloads = 1 << 20 // the per-slice concurrency targets bound it
			return c
		},
		plan: sweepPlan,
	},
	{
		name: "whatif-commit",
		rate: 100,
		genConfig: func() schedule.GeneratorConfig {
			c := schedule.DefaultGeneratorConfig()
			c.MinSlices, c.MaxSlices = 16, 16 // long enough to reach the cap
			c.MaxWorkloads = 18
			return c
		},
		plan: whatifPlan,
	},
	{
		name:      "cluster-forward",
		rate:      1200,
		cluster:   true,
		genConfig: dashboardConfig,
		size:      dashboardSize,
		plan:      dashboardPlan,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// dashboardConfig is the daemon's default generator at its longest
// schedule. Its workload count still varies with the draw, so the
// dashboard workloads also fix that at the default cap, dashboardSize:
// every seed then serves the same number of keys and workloads.
func dashboardConfig() schedule.GeneratorConfig {
	c := schedule.DefaultGeneratorConfig()
	c.MinSlices = c.MaxSlices
	return c
}

var dashboardSize = schedule.DefaultGeneratorConfig().MaxWorkloads

// maxRedraws bounds the draws a sized schedule may take.
const maxRedraws = 1000

// Seed streams: the schedule, the plan and the arrival times each draw
// from their own source derived from the seed argument. A sized workload
// keeps drawing from the schedule stream until a schedule has its size.
func (w *workload) schedule(seed int64) (*schedule.Schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < maxRedraws; i++ {
		s, err := schedule.Generate(w.genConfig(), rng)
		if err != nil || w.size == 0 || len(s.Workloads) == w.size {
			return s, err
		}
	}
	return nil, fmt.Errorf("no schedule of %d workloads in %d draws", w.size, maxRedraws)
}

func planRNG(seed int64) *rand.Rand    { return rand.New(rand.NewSource(seed*7919 + 1)) }
func arrivalRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed*7919 + 2)) }

// arrivals draws Poisson arrival offsets at rate over [0, d).
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// timedOps draws the ops of one timed phase and numbers its writes.
func timedOps(due []time.Duration, draw func() op) []op {
	ops := make([]op, len(due))
	writes := 0
	for i, d := range due {
		ops[i] = draw()
		ops[i].due = d
		if ops[i].kind != opRead {
			ops[i].c.seq = writes
			writes++
		}
	}
	return ops
}

// key is one computation identity: a method over a period.
type key struct {
	method     string
	start, end int
}

// activeIn counts the workloads running in [start, end).
func activeIn(s *schedule.Schedule, start, end int) int {
	n := 0
	for _, w := range s.Workloads {
		if max(w.Start, start) < min(w.End(), end) {
			n++
		}
	}
	return n
}

// keys lists every servable (method, period): periods with at least one
// running workload, and ground-truth only where at most gtMax run.
func keys(s *schedule.Schedule, gtMax int) []key {
	var out []key
	for _, m := range methods {
		for start := 0; start < s.Slices; start++ {
			for end := start + 1; end <= s.Slices; end++ {
				n := activeIn(s, start, end)
				if n == 0 || (m == methodGroundTruth && n > gtMax) {
					continue
				}
				out = append(out, key{m, start, end})
			}
		}
	}
	return out
}

// readOp renders a GET for k on a random endpoint; half of them filter
// to one tenant.
func readOp(s *schedule.Schedule, rng *rand.Rand, k key) op {
	q := query{endpoint: endpoints[rng.Intn(len(endpoints))], method: k.method, start: k.start, end: k.end, tenant: -1}
	if rng.Intn(2) == 0 {
		q.tenant = rng.Intn(len(s.Workloads))
	}
	return op{kind: opRead, uri: q.uri(), q: q}
}

func (q query) uri() string {
	u := fmt.Sprintf("/v1/%s?method=%s&period=%d:%d", q.endpoint, q.method, q.start, q.end)
	if q.tenant >= 0 {
		u += fmt.Sprintf("&tenant=%d", q.tenant)
	}
	return u
}

// dashboardPlan warms every key, then reads random keys: the timed phase
// runs on cache hits only.
func dashboardPlan(s *schedule.Schedule, rng *rand.Rand) ([]op, func() op) {
	ks := keys(s, len(s.Workloads))
	warm := make([]op, len(ks))
	for i, k := range ks {
		q := query{endpoint: "attribution", method: k.method, start: k.start, end: k.end, tenant: -1}
		warm[i] = op{kind: opRead, uri: q.uri(), q: q}
	}
	return warm, func() op { return readOp(s, rng, ks[rng.Intn(len(ks))]) }
}

// sweepWarm is how many keys cold-sweep spends warming connections and
// code paths; the timed phase never reuses them.
const sweepWarm = 64

// sweepRepeat is the share of cold-sweep requests that repeat the
// previous request's key, which the other connection has usually just
// sent: those coalesce onto its computation or hit its result.
const sweepRepeat = 0.05

// sweepPlan walks every key in a seeded order, one new key per request.
func sweepPlan(s *schedule.Schedule, rng *rand.Rand) ([]op, func() op) {
	ks := keys(s, groundTruthMaxActive)
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	var warm []op
	for _, k := range ks[:min(sweepWarm, len(ks))] {
		warm = append(warm, readOp(s, rng, k))
	}
	next := min(sweepWarm, len(ks))
	prev := ks[0]
	return warm, func() op {
		k := prev
		if rng.Float64() >= sweepRepeat {
			k = ks[next%len(ks)]
			next++
		}
		prev = k
		return readOp(s, rng, k)
	}
}

// The whatif-commit mix: writeShare of ops are demand deltas, of which
// commitShare commit; what-ifs split between fair-co2 and ground-truth.
// Reads split between full-window keys (served by commit-patched cache
// entries) and sub-period keys (cold after every commit).
const (
	writeShare  = 0.2
	commitShare = 0.25
	maxCores    = 96
)

// whatifPlan mixes demand-delta writes with full-window and sub-period
// reads.
func whatifPlan(s *schedule.Schedule, rng *rand.Rand) ([]op, func() op) {
	var full []key
	var warm []op
	for _, m := range methods {
		q := query{endpoint: "attribution", method: m, start: 0, end: s.Slices, tenant: -1}
		warm = append(warm, op{kind: opRead, uri: q.uri(), q: q})
		full = append(full, key{m, 0, s.Slices})
	}
	var sub []key // ground-truth excluded: gtMax 0
	for _, k := range keys(s, 0) {
		if k.end-k.start < s.Slices {
			sub = append(sub, k)
		}
	}
	return warm, func() op {
		if rng.Float64() < writeShare {
			c := change{tenant: rng.Intn(len(s.Workloads)), cores: 1 + rng.Intn(maxCores), method: methodFairCO2}
			kind := opCommit
			if rng.Float64() >= commitShare {
				kind = opWhatIf
				if rng.Intn(2) == 0 {
					c.method = methodGroundTruth
				}
			}
			body := fmt.Sprintf(`{"tenant":%d,"cores":%d,"method":%q,"commit":%t}`, c.tenant, c.cores, c.method, kind == opCommit)
			return op{kind: kind, uri: "/v1/demand/delta", body: []byte(body), c: c}
		}
		if rng.Intn(2) == 0 {
			return readOp(s, rng, full[rng.Intn(len(full))])
		}
		return readOp(s, rng, sub[rng.Intn(len(sub))])
	}
}
