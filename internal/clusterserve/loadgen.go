package clusterserve

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairco2/internal/attribution"
	"fairco2/internal/attrserver"
	"fairco2/internal/metrics"
	"fairco2/internal/resilience/faultserver"
	"fairco2/internal/schedule"
	"fairco2/internal/units"
)

// This file is the multi-replica load harness: StartFleet spins an
// in-process cluster (one attrserver + Node per replica, wired over
// httptest listeners, sharing one metrics registry), and RunLoad drives
// it with concurrent workers that honor 429 back-pressure. The load and
// differential test suites build on it, as does cmd/cluster-load, which
// records the replica-scaling curve for reproduce.sh.

// SyntheticMethod names the sleep-backed attribution method StartFleet
// registers when ServiceTime is set. A fixed service time makes replica
// scaling observable on any host: sleeping computations cost no CPU, so
// N replicas' admission capacity adds even on a single core.
const SyntheticMethod = "synthetic"

// syntheticMethod sleeps a fixed service time, then answers through the
// cheap demand-proportional method so responses stay well-formed.
type syntheticMethod struct {
	delay time.Duration
}

func (m syntheticMethod) Name() string { return SyntheticMethod }

func (m syntheticMethod) Attribute(s *schedule.Schedule, budget units.GramsCO2e) ([]float64, error) {
	time.Sleep(m.delay)
	return attribution.DemandProportional{}.Attribute(s, budget)
}

// FleetConfig parameterizes an in-process cluster.
type FleetConfig struct {
	// Replicas is the cluster size (required, >= 1).
	Replicas int
	// VNodes is forwarded to each node's ring (0 = DefaultVNodes).
	VNodes int
	// Schedule is served by every replica; nil selects FleetSchedule(64).
	Schedule *schedule.Schedule
	// Budget is the embodied budget (default 1e6 g).
	Budget units.GramsCO2e
	// Admission applies at every node's ingress.
	Admission AdmissionConfig
	// ServiceTime, when set, registers SyntheticMethod with this fixed
	// per-computation latency.
	ServiceTime time.Duration
	// SelfHeal starts each node's health prober once every listener is
	// live, and restarts it on RestartReplica.
	SelfHeal bool
	// Probe and Hedge tune the self-healing layer of every node.
	Probe ProbeConfig
	Hedge HedgeConfig
	// Server and Node, when set, tweak each replica's configs after the
	// harness defaults are applied.
	Server func(*attrserver.Config)
	Node   func(*Config)
}

// Fleet is a running in-process cluster. Replica IDs are "0".."R-1";
// URLs[i] is replica i's base URL.
type Fleet struct {
	Reg   *metrics.Registry
	IDs   []string
	URLs  []string
	Nodes []*Node
	Srvs  []*attrserver.Server
	// Gates are per-replica fault-injection gates sitting in front of
	// each node's handler — chaos scripts Program them to partition or
	// latency-spike a live replica in place.
	Gates []*faultserver.Server

	cfg     FleetConfig
	peers   map[string]string
	holders []*handlerHolder
	http    []*httptest.Server
}

// handlerHolder lets the httptest listeners exist (their addresses are
// needed for the peer map) before the node handlers that serve them, and
// lets RestartReplica swap a rebuilt handler in under live traffic.
type handlerHolder struct{ h atomic.Value }

func (hh *handlerHolder) set(h http.Handler) { hh.h.Store(&h) }

func (hh *handlerHolder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*hh.h.Load().(*http.Handler)).ServeHTTP(w, r)
}

// FleetSchedule is the harness default: a dense schedule with the given
// slice count and a handful of workloads, small enough that the delta
// engines build instantly but wide enough to enumerate thousands of
// distinct query periods.
func FleetSchedule(slices int) *schedule.Schedule {
	return &schedule.Schedule{
		Slices:        slices,
		SliceDuration: 1,
		Workloads: []schedule.Workload{
			{ID: 0, Cores: 4, Start: 0, Duration: slices},
			{ID: 1, Cores: 2, Start: 0, Duration: slices / 2},
			{ID: 2, Cores: 3, Start: slices / 4, Duration: slices / 2},
			{ID: 3, Cores: 1, Start: slices / 2, Duration: slices / 2},
		},
	}
}

// StartFleet builds and starts an in-process cluster. Close it when done.
func StartFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("clusterserve: fleet needs at least one replica, got %d", cfg.Replicas)
	}
	if cfg.Schedule == nil {
		cfg.Schedule = FleetSchedule(64)
	}
	if cfg.Budget == 0 {
		cfg.Budget = 1e6
	}
	f := &Fleet{
		Reg:   metrics.NewRegistry(),
		cfg:   cfg,
		peers: make(map[string]string, cfg.Replicas),
	}
	for i := 0; i < cfg.Replicas; i++ {
		id := strconv.Itoa(i)
		holder := &handlerHolder{}
		ts := httptest.NewUnstartedServer(holder)
		url := "http://" + ts.Listener.Addr().String()
		f.IDs = append(f.IDs, id)
		f.URLs = append(f.URLs, url)
		f.holders = append(f.holders, holder)
		f.http = append(f.http, ts)
		f.peers[id] = url
	}
	for i := 0; i < cfg.Replicas; i++ {
		srv, node, err := f.buildReplica(i)
		if err != nil {
			f.Close()
			return nil, err
		}
		gate := faultserver.NewHandler(node.Handler())
		f.Srvs = append(f.Srvs, srv)
		f.Nodes = append(f.Nodes, node)
		f.Gates = append(f.Gates, gate)
		f.holders[i].set(gate)
		f.http[i].Start()
	}
	if cfg.SelfHeal {
		// Probers start only once every listener is live, so no replica
		// begins life falsely Down.
		for _, n := range f.Nodes {
			n.Start()
		}
	}
	return f, nil
}

// buildReplica constructs replica i's attrserver and node from the fleet
// config — used at startup and again by RestartReplica, so a restarted
// replica comes back with the original (stale) schedule and must catch up
// through the commit log.
func (f *Fleet) buildReplica(i int) (*attrserver.Server, *Node, error) {
	cfg := f.cfg
	scfg := attrserver.DefaultConfig()
	scfg.Schedule = cfg.Schedule
	scfg.Budget = cfg.Budget
	scfg.Parallelism = 1
	scfg.Replica = f.IDs[i]
	if cfg.ServiceTime > 0 {
		scfg.Methods = map[string]attribution.Method{
			SyntheticMethod: syntheticMethod{delay: cfg.ServiceTime},
		}
	}
	if cfg.Server != nil {
		cfg.Server(&scfg)
	}
	srv, err := attrserver.New(scfg, f.Reg)
	if err != nil {
		return nil, nil, err
	}
	ncfg := Config{
		ReplicaID: f.IDs[i],
		Peers:     f.peers,
		VNodes:    cfg.VNodes,
		Server:    srv,
		Admission: cfg.Admission,
		Probe:     cfg.Probe,
		Hedge:     cfg.Hedge,
	}
	if cfg.Node != nil {
		cfg.Node(&ncfg)
	}
	node, err := New(ncfg, f.Reg)
	if err != nil {
		return nil, nil, err
	}
	return srv, node, nil
}

// Close stops every prober and shuts every replica's listener down.
func (f *Fleet) Close() {
	for _, n := range f.Nodes {
		n.Stop()
	}
	for _, ts := range f.http {
		ts.CloseClientConnections()
		ts.Close()
	}
}

// CloseReplica blacks out one replica — its prober halts and its listener
// closes — the kill fault. RestartReplica brings it back.
func (f *Fleet) CloseReplica(i int) {
	f.Nodes[i].Stop()
	f.http[i].CloseClientConnections()
	f.http[i].Close()
}

// RestartReplica rebuilds a previously closed replica at its original
// address: a fresh attrserver (stale schedule), a fresh node and fault
// gate swapped in under the same URL, and — under SelfHeal — a prober
// whose warmup replays the commits missed while dark.
func (f *Fleet) RestartReplica(i int) error {
	addr := strings.TrimPrefix(f.URLs[i], "http://")
	var (
		l   net.Listener
		err error
	)
	// The freed address can linger briefly after Close; retry with
	// backoff rather than flake.
	for wait := time.Millisecond; ; wait *= 2 {
		l, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if wait > time.Second {
			return fmt.Errorf("clusterserve: rebinding %s: %w", addr, err)
		}
		time.Sleep(wait)
	}
	srv, node, err := f.buildReplica(i)
	if err != nil {
		l.Close()
		return err
	}
	gate := faultserver.NewHandler(node.Handler())
	f.Srvs[i], f.Nodes[i], f.Gates[i] = srv, node, gate
	f.holders[i].set(gate)
	ts := &httptest.Server{Listener: l, Config: &http.Server{Handler: f.holders[i]}}
	ts.Start()
	f.http[i] = ts
	if f.cfg.SelfHeal {
		node.Start()
	}
	return nil
}

// FamilyTotal sums every sample of a counter or gauge family across all
// label sets — e.g. FamilyTotal("fairco2_attrserver_computations_total")
// is the cluster-wide computation count.
func (f *Fleet) FamilyTotal(name string) float64 {
	total := 0.0
	for _, fam := range f.Reg.Gather() {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Samples {
			total += s.Value
		}
	}
	return total
}

// DistinctPeriods enumerates n distinct "start:end" period strings over a
// schedule with the given slice count, cycling window lengths so the key
// space mixes wide and narrow queries. It panics when the slice count
// cannot supply n distinct periods.
func DistinctPeriods(slices, n int) []string {
	out := make([]string, 0, n)
	for length := slices; length >= 1 && len(out) < n; length-- {
		for start := 0; start+length <= slices && len(out) < n; start++ {
			out = append(out, strconv.Itoa(start)+":"+strconv.Itoa(start+length))
		}
	}
	if len(out) < n {
		panic(fmt.Sprintf("clusterserve: only %d distinct periods exist for %d slices, need %d", len(out), slices, n))
	}
	return out
}

// LoadConfig drives RunLoad.
type LoadConfig struct {
	// Entries are the base URLs workers enter the cluster through,
	// assigned round-robin by worker index.
	Entries []string
	// Workers is the concurrency (required, >= 1).
	Workers int
	// Requests caps total successful requests; 0 means run until the
	// Duration deadline instead (one of the two must be set).
	Requests int
	// Duration bounds the run in fixed-duration mode.
	Duration time.Duration
	// Path yields the request path+query for the seq-th request.
	Path func(seq int) string
	// Header, when set, adds headers (e.g. the tenant identity) for the
	// seq-th request.
	Header func(seq int) http.Header
	// RetryWait is the back-off when a 429 carries no millisecond hint
	// (default 2ms).
	RetryWait time.Duration
	// Client issues the requests (default http.DefaultClient).
	Client *http.Client
}

// LoadStats summarizes one RunLoad.
type LoadStats struct {
	// Done counts requests that reached 200.
	Done int64
	// Shed counts 429 responses observed (each is retried).
	Shed int64
	// Errors counts transport failures and non-200/429 statuses.
	Errors int64
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
}

// Throughput is completed requests per second.
func (s LoadStats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Done) / s.Elapsed.Seconds()
}

// RunLoad fires requests from Workers concurrent workers until the
// request budget or deadline is spent. Workers honor 429 back-pressure:
// they sleep the shed response's Retry-After (millisecond form when
// present) and retry the same request, so offered load adapts to what
// admission control grants.
func RunLoad(cfg LoadConfig) LoadStats {
	if cfg.RetryWait == 0 {
		cfg.RetryWait = 2 * time.Millisecond
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	var stats LoadStats
	var seq atomic.Int64
	start := time.Now()
	deadline := time.Time{}
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}
	expired := func() bool { return !deadline.IsZero() && time.Now().After(deadline) }

	var done, shed, errs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			entry := cfg.Entries[w%len(cfg.Entries)]
			for {
				i := seq.Add(1) - 1
				if cfg.Requests > 0 && i >= int64(cfg.Requests) {
					return
				}
				if expired() {
					return
				}
				req, err := http.NewRequest(http.MethodGet, entry+cfg.Path(int(i)), nil)
				if err != nil {
					errs.Add(1)
					continue
				}
				if cfg.Header != nil {
					for k, vv := range cfg.Header(int(i)) {
						req.Header[k] = vv
					}
				}
				for {
					resp, err := client.Do(req)
					if err != nil {
						errs.Add(1)
						break
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						done.Add(1)
						break
					}
					if resp.StatusCode != http.StatusTooManyRequests {
						errs.Add(1)
						break
					}
					shed.Add(1)
					if expired() {
						return
					}
					time.Sleep(retryWait(resp, cfg.RetryWait))
				}
			}
		}(w)
	}
	wg.Wait()
	stats.Done = done.Load()
	stats.Shed = shed.Load()
	stats.Errors = errs.Load()
	stats.Elapsed = time.Since(start)
	return stats
}

// retryWait picks the back-off a 429 asked for: the millisecond header
// when present, else the fallback.
func retryWait(resp *http.Response, fallback time.Duration) time.Duration {
	if ms := resp.Header.Get(HeaderRetryAfterMs); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
			return time.Duration(v) * time.Millisecond
		}
	}
	return fallback
}
