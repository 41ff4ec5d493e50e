package attrserver

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fairco2/internal/attribution"
	"fairco2/internal/livesignal"
	"fairco2/internal/metrics"
	"fairco2/internal/schedule"
	"fairco2/internal/units"
)

// testSchedule is a 8-slice schedule whose final two slices are idle, so
// tests can query both busy and empty periods.
func testSchedule(t testing.TB) *schedule.Schedule {
	t.Helper()
	s := &schedule.Schedule{
		Slices:        8,
		SliceDuration: 3600,
		Workloads: []schedule.Workload{
			{ID: 0, Cores: 8, Start: 0, Duration: 3},
			{ID: 1, Cores: 16, Start: 1, Duration: 2},
			{ID: 2, Cores: 8, Start: 3, Duration: 3},
			{ID: 3, Cores: 32, Start: 2, Duration: 2},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// newTestServer builds a server over testSchedule with a deterministic
// clock, returning the server and its registry.
func newTestServer(t testing.TB, clock *fakeClock, mutate func(*Config)) (*Server, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	cfg := Config{
		Schedule:    testSchedule(t),
		Budget:      1000,
		Parallelism: 1,
	}
	if clock != nil {
		cfg.Now = clock.Now
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	return s, reg
}

// getJSON fetches a URL and decodes the JSON body, returning the status.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v\nbody: %s", url, err, body)
		}
	}
	return resp.StatusCode
}

func TestAttributionEndpointMatchesDirectComputation(t *testing.T) {
	srv, _ := newTestServer(t, nil, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var resp queryResponse
	if code := getJSON(t, ts.URL+"/v1/attribution?method=ground-truth&period=0:6", &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}

	sub, ids, err := subSchedule(srv.cfg.Schedule, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	// The period covers 6 of 8 slices, so it prices 6/8 of the budget.
	wantBudget := 1000.0 * 6 / 8
	want, err := attribution.GroundTruth{Parallelism: 1}.Attribute(sub, units.GramsCO2e(wantBudget))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Method != "ground-truth" || resp.Period.Start != 0 || resp.Period.End != 6 {
		t.Errorf("header = %+v", resp)
	}
	if resp.BudgetGrams != wantBudget {
		t.Errorf("budget = %v, want %v", resp.BudgetGrams, wantBudget)
	}
	if resp.Signal.Quality != "static" {
		t.Errorf("quality = %q, want static", resp.Signal.Quality)
	}
	if len(resp.Attribution) != len(ids) {
		t.Fatalf("%d workloads, want %d", len(resp.Attribution), len(ids))
	}
	for i, wg := range resp.Attribution {
		if wg.ID != ids[i] || math.Abs(wg.Grams-want[i]) > 1e-9 {
			t.Errorf("workload %d = %+v, want id %d grams %v", i, wg, ids[i], want[i])
		}
	}
}

func TestTenantFilterAndAbsentTenant(t *testing.T) {
	srv, _ := newTestServer(t, nil, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var all queryResponse
	getJSON(t, ts.URL+"/v1/attribution?period=0:6", &all)
	var one queryResponse
	if code := getJSON(t, ts.URL+"/v1/attribution?period=0:6&tenant=1", &one); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(one.Attribution) != 1 || one.Attribution[0].ID != 1 {
		t.Fatalf("tenant filter returned %+v", one.Attribution)
	}
	if one.Attribution[0].Grams != all.Attribution[1].Grams {
		t.Errorf("tenant 1 grams %v != full-vector grams %v", one.Attribution[0].Grams, all.Attribution[1].Grams)
	}

	// Workload 0 finishes at slice 3: in period 4:6 it must price at zero.
	var absent queryResponse
	if code := getJSON(t, ts.URL+"/v1/attribution?period=4:6&tenant=0", &absent); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(absent.Attribution) != 1 || absent.Attribution[0].Grams != 0 {
		t.Errorf("absent tenant priced at %+v, want 0", absent.Attribution)
	}
}

func TestShareEndpointSumsToOne(t *testing.T) {
	srv, _ := newTestServer(t, nil, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var resp queryResponse
	if code := getJSON(t, ts.URL+"/v1/share?method=rup&period=0:6", &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	total := 0.0
	for _, sh := range resp.Shares {
		if sh.Share < 0 {
			t.Errorf("negative share %+v", sh)
		}
		total += sh.Share
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", total)
	}
}

func TestBillingEndpointPricesGrams(t *testing.T) {
	srv, _ := newTestServer(t, nil, func(c *Config) { c.PricePerTonne = 250 })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var resp queryResponse
	if code := getJSON(t, ts.URL+"/v1/billing?period=0:6", &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Billing == nil || resp.Billing.PricePerTonne != 250 {
		t.Fatalf("billing = %+v", resp.Billing)
	}
	for _, line := range resp.Billing.Lines {
		if want := line.Grams / 1e6 * 250; math.Abs(line.USD-want) > 1e-12 {
			t.Errorf("line %+v: usd = %v, want %v", line, line.USD, want)
		}
	}
}

func TestBadQueriesReturn400(t *testing.T) {
	srv, _ := newTestServer(t, nil, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, q := range []string{
		"method=nope",
		"period=5",
		"period=9:2",
		"period=0:99",
		"period=-1:3",
		"tenant=99",
		"tenant=bob",
		"period=6:8", // idle tail: nothing to attribute
	} {
		var body map[string]string
		if code := getJSON(t, ts.URL+"/v1/attribution?"+q, &body); code != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, code)
		}
		if body["error"] == "" {
			t.Errorf("query %q: missing error body", q)
		}
	}
}

func TestCacheServesRepeatQueriesAndTTLExpires(t *testing.T) {
	clock := newFakeClock()
	srv, _ := newTestServer(t, clock, func(c *Config) { c.CacheTTL = time.Minute })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	url := ts.URL + "/v1/attribution?method=fair-co2&period=0:6"
	getJSON(t, url, nil)
	getJSON(t, url, nil)
	// The share endpoint reuses the same cached vector: same key.
	getJSON(t, ts.URL+"/v1/share?method=fair-co2&period=0:6", nil)

	if got := srv.inst.Computations.With("fair-co2").Value(); got != 1 {
		t.Errorf("computations = %v, want 1 (repeat queries must hit the cache)", got)
	}
	if got := srv.inst.CacheHits.Value(); got != 2 {
		t.Errorf("cache hits = %v, want 2", got)
	}

	clock.Advance(2 * time.Minute)
	getJSON(t, url, nil)
	if got := srv.inst.Computations.With("fair-co2").Value(); got != 2 {
		t.Errorf("computations after TTL expiry = %v, want 2", got)
	}

	// A different period is a different key: new computation.
	getJSON(t, ts.URL+"/v1/attribution?method=fair-co2&period=0:4", nil)
	if got := srv.inst.Computations.With("fair-co2").Value(); got != 3 {
		t.Errorf("computations after new period = %v, want 3", got)
	}
}

// fakeSource is a controllable livesignal source.
type fakeSource struct {
	mu  sync.Mutex
	v   float64
	err error
}

func (f *fakeSource) set(v float64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.v, f.err = v, err
}

func (f *fakeSource) Current() (float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.v, f.err
}

func TestSignalModeTiesBudgetAndTTLToStaleness(t *testing.T) {
	clock := newFakeClock()
	src := &fakeSource{v: 2}
	const maxStale = 10 * time.Minute
	feed := livesignal.NewFeed(src, livesignal.FeedConfig{MaxStale: maxStale, Now: clock.Now}, nil)
	srv, _ := newTestServer(t, clock, func(c *Config) {
		c.Feed = feed
		c.SignalMaxStale = maxStale
		c.CacheTTL = 5 * time.Minute
		c.DegradedTTL = 15 * time.Second
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/attribution?method=rup&period=0:6"

	// Fresh: the period budget is intensity x the period's resource-seconds.
	var fresh queryResponse
	getJSON(t, url, &fresh)
	sub, _, err := subSchedule(srv.cfg.Schedule, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	wantBudget := 2 * float64(sub.TotalCoreSeconds())
	if fresh.Signal.Quality != "fresh" || fresh.BudgetGrams != wantBudget {
		t.Errorf("fresh response: quality %q budget %v, want fresh %v", fresh.Signal.Quality, fresh.BudgetGrams, wantBudget)
	}

	// Source dies. At age 8m the sample is stale: last-known-good budget,
	// and the result may only live for the staleness budget's remainder
	// (2m), not the full cache TTL.
	src.set(0, fmt.Errorf("signal server down"))
	clock.Advance(8 * time.Minute) // cache (5m TTL) has also expired
	var stale queryResponse
	getJSON(t, url, &stale)
	if stale.Signal.Quality != "stale" || stale.BudgetGrams != wantBudget {
		t.Errorf("stale response: quality %q budget %v, want stale %v", stale.Signal.Quality, stale.BudgetGrams, wantBudget)
	}
	comps := func() float64 { return srv.inst.Computations.With("rup").Value() }
	if got := comps(); got != 2 {
		t.Fatalf("computations = %v, want 2", got)
	}
	clock.Advance(90 * time.Second) // within the 2m remainder: cached
	getJSON(t, url, nil)
	if got := comps(); got != 2 {
		t.Errorf("stale result evicted early: computations = %v, want 2", got)
	}
	clock.Advance(time.Minute) // past the remainder: recompute, now degraded
	var degraded queryResponse
	getJSON(t, url, &degraded)
	if got := comps(); got != 3 {
		t.Fatalf("computations = %v, want 3", got)
	}
	// Past MaxStale the ladder bottoms out: static prorated budget, short TTL.
	if degraded.Signal.Quality != "degraded" || degraded.BudgetGrams != 1000.0*6/8 {
		t.Errorf("degraded response: quality %q budget %v", degraded.Signal.Quality, degraded.BudgetGrams)
	}
	clock.Advance(10 * time.Second) // inside DegradedTTL: cached
	getJSON(t, url, nil)
	if got := comps(); got != 3 {
		t.Errorf("degraded result not cached: computations = %v, want 3", got)
	}
	clock.Advance(10 * time.Second) // past DegradedTTL: recompute
	getJSON(t, url, nil)
	if got := comps(); got != 4 {
		t.Errorf("degraded result outlived its TTL: computations = %v, want 4", got)
	}

	// Recovery: the next computation prices fresh again.
	src.set(3, nil)
	clock.Advance(16 * time.Second)
	var recovered queryResponse
	getJSON(t, url, &recovered)
	if recovered.Signal.Quality != "fresh" || recovered.Signal.Intensity != 3 {
		t.Errorf("recovered response: %+v", recovered.Signal)
	}
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	srv, _ := newTestServer(t, nil, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}
	if health["config_fingerprint"] == "" {
		t.Error("healthz missing config fingerprint")
	}

	getJSON(t, ts.URL+"/v1/attribution", nil) // populate counters

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if _, err := metrics.LintText(strings.NewReader(string(body))); err != nil {
		t.Errorf("metrics exposition does not lint: %v", err)
	}
	for _, name := range []string{
		"fairco2_attrserver_requests_total",
		"fairco2_attrserver_cache_hits_total",
		"fairco2_attrserver_cache_misses_total",
		"fairco2_attrserver_cache_evictions_total",
		"fairco2_attrserver_coalesced_total",
		"fairco2_attrserver_computations_total",
		"fairco2_attrserver_inflight",
	} {
		if !strings.Contains(string(body), name) {
			t.Errorf("exposition missing %s", name)
		}
	}
	if srv.inst.Requests.With("attribution", "200").Value() < 1 {
		t.Error("requests_total{attribution,200} not incremented")
	}
}

// TestTwoReplicasShareOneRegistry pins the multi-replica metrics contract:
// two Servers on one registry must not panic on duplicate registration and
// must keep their counters apart under distinct replica labels.
func TestTwoReplicasShareOneRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	mk := func(replica string) *Server {
		s, err := New(Config{
			Schedule:    testSchedule(t),
			Budget:      1000,
			Parallelism: 1,
			Replica:     replica,
		}, reg)
		if err != nil {
			t.Fatalf("replica %s: %v", replica, err)
		}
		return s
	}
	a, b := mk("0"), mk("1")

	ts := httptest.NewServer(a.Handler())
	defer ts.Close()
	getJSON(t, ts.URL+"/v1/attribution?method=rup&period=0:6", nil)

	if got := a.inst.CacheMisses.Value(); got != 1 {
		t.Errorf("replica 0 cache misses = %v, want 1", got)
	}
	if got := b.inst.CacheMisses.Value(); got != 0 {
		t.Errorf("replica 1 cache misses = %v, want 0 (aliased with replica 0)", got)
	}
	text := scrape(t, ts.URL+"/metrics")
	for _, series := range []string{
		`fairco2_attrserver_cache_misses_total{replica="0"}`,
		`fairco2_attrserver_cache_misses_total{replica="1"}`,
	} {
		if metricValue(t, text, series) != a.inst.CacheMisses.Value() && !strings.Contains(text, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
	if got := metricValue(t, text, `fairco2_attrserver_cache_misses_total{replica="1"}`); got != 0 {
		t.Errorf("replica 1 series = %v, want 0", got)
	}
}

func TestConfigValidation(t *testing.T) {
	reg := metrics.NewRegistry()
	if _, err := New(Config{}, reg); err == nil {
		t.Error("nil schedule accepted")
	}
	if _, err := New(Config{Schedule: testSchedule(t)}, metrics.NewRegistry()); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := New(Config{Schedule: testSchedule(t), Budget: 1, CacheTTL: -1}, metrics.NewRegistry()); err == nil {
		t.Error("negative TTL accepted")
	}
}

// TestHealthStatusLifecycle walks /healthz through the cluster readiness
// lifecycle: ok at boot, warming (still 200 — the replica is alive, just
// not ring-ready) during catch-up, and draining as a 503 so probers and
// load balancers evict the replica ahead of shutdown.
func TestHealthStatusLifecycle(t *testing.T) {
	srv, _ := newTestServer(t, nil, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	check := func(wantStatus string, wantCode int) {
		t.Helper()
		var health map[string]any
		if code := getJSON(t, ts.URL+"/healthz", &health); code != wantCode {
			t.Fatalf("healthz code = %d, want %d (status %q)", code, wantCode, wantStatus)
		}
		if health["status"] != wantStatus {
			t.Fatalf("healthz status = %v, want %q", health["status"], wantStatus)
		}
	}

	check(HealthOK, http.StatusOK)
	if got := srv.HealthStatus(); got != HealthOK {
		t.Fatalf("HealthStatus() = %q at boot, want %q", got, HealthOK)
	}

	srv.SetHealthStatus(HealthWarming)
	check(HealthWarming, http.StatusOK)

	srv.SetHealthStatus(HealthDraining)
	check(HealthDraining, http.StatusServiceUnavailable)

	// Draining still serves queries: only readiness flips, not the data
	// plane — in-flight and still-arriving work finishes during the drain.
	if code := getJSON(t, ts.URL+"/v1/attribution", nil); code != http.StatusOK {
		t.Fatalf("query during drain: status %d, want 200", code)
	}

	srv.SetHealthStatus(HealthOK)
	check(HealthOK, http.StatusOK)
}
