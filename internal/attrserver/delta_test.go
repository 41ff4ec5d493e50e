package attrserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"fairco2/internal/attribution"
	"fairco2/internal/metrics"
	"fairco2/internal/schedule"
	"fairco2/internal/units"
)

// postDelta posts a delta request body and decodes the response (into a
// deltaResponse on 2xx, a map otherwise), returning the status code.
func postDelta(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/demand/delta", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding delta response: %v", err)
		}
	}
	return resp.StatusCode
}

func intp(v int) *int { return &v }

// directAttribution computes the full-window attribution for a method
// name the way the server's compute path does, on an explicit schedule.
func directAttribution(t *testing.T, method string, s *schedule.Schedule, budget units.GramsCO2e) []float64 {
	t.Helper()
	methods := map[string]attribution.Method{
		MethodGroundTruth:        attribution.GroundTruth{Parallelism: 1},
		MethodRUP:                attribution.RUPBaseline{},
		MethodDemandProportional: attribution.DemandProportional{},
		MethodFairCO2:            attribution.TemporalShapley{Parallelism: 1},
	}
	grams, err := methods[method].Attribute(s, budget)
	if err != nil {
		t.Fatal(err)
	}
	return grams
}

func requireGramsBits(t *testing.T, label string, want []float64, got []workloadGrams) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d workloads, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != i {
			t.Fatalf("%s: workload %d has ID %d", label, i, got[i].ID)
		}
		if math.Float64bits(got[i].Grams) != math.Float64bits(want[i]) {
			t.Fatalf("%s: workload %d got %v (%#x), want %v (%#x)", label, i,
				got[i].Grams, math.Float64bits(got[i].Grams), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestDeltaWhatIfMatchesFreshComputation pins the endpoint's core
// contract: a what-if answer is bitwise-identical to a fresh full-window
// attribution over the modified schedule, for every standard method.
func TestDeltaWhatIfMatchesFreshComputation(t *testing.T) {
	srv, _ := newTestServer(t, nil, func(c *Config) { c.EnableDelta = true })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	modified := testSchedule(t)
	modified.Workloads[1].Cores = 40
	if err := modified.Validate(); err != nil {
		t.Fatal(err)
	}

	for _, method := range []string{MethodFairCO2, MethodGroundTruth, MethodRUP, MethodDemandProportional} {
		var resp deltaResponse
		code := postDelta(t, ts.URL, deltaRequest{Tenant: 1, Cores: intp(40), Method: method}, &resp)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", method, code)
		}
		if resp.Committed {
			t.Fatalf("%s: what-if reported committed", method)
		}
		want := directAttribution(t, method, modified, 1000)
		requireGramsBits(t, method, want, resp.Attribution)
		if resp.BudgetGrams != 1000 {
			t.Fatalf("%s: budget %v, want full window 1000", method, resp.BudgetGrams)
		}
	}
}

// TestDeltaStatsCounts checks the reported delta work: one changed
// tenant out of n=4 affects exactly 2^4 - 2^3 = 8 coalitions, and the
// temporal period counters cover the top level.
func TestDeltaStatsCounts(t *testing.T) {
	srv, _ := newTestServer(t, nil, func(c *Config) { c.EnableDelta = true })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var resp deltaResponse
	if code := postDelta(t, ts.URL, deltaRequest{Tenant: 2, Cores: intp(9)}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Delta.ShapleyCoalitions != 8 {
		t.Fatalf("coalitions re-evaluated = %d, want 8", resp.Delta.ShapleyCoalitions)
	}
	if got := resp.Delta.ShapleyBlocksRecomputed + resp.Delta.ShapleyBlocksSkipped; got != 16 {
		t.Fatalf("shapley blocks sum to %d, want 16", got)
	}
	if got := resp.Delta.PeriodsRecomputed + resp.Delta.PeriodsSkipped; got != 8 {
		t.Fatalf("temporal periods sum to %d, want 8 (one per slice)", got)
	}
}

// TestDeltaWhatIfLeavesStateIntact verifies the revert path: after a
// what-if, GET answers and the config fingerprint are those of the
// original schedule, and a repeated what-if returns identical bits.
func TestDeltaWhatIfLeavesStateIntact(t *testing.T) {
	srv, _ := newTestServer(t, nil, func(c *Config) { c.EnableDelta = true })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health struct {
		Fingerprint string `json:"config_fingerprint"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	before := health.Fingerprint

	var first, second deltaResponse
	req := deltaRequest{Tenant: 0, Cores: intp(3), Duration: intp(5), Method: MethodGroundTruth}
	if code := postDelta(t, ts.URL, req, &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if code := postDelta(t, ts.URL, req, &second); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for i := range first.Attribution {
		if math.Float64bits(first.Attribution[i].Grams) != math.Float64bits(second.Attribution[i].Grams) {
			t.Fatalf("repeated what-if diverged at workload %d", i)
		}
	}

	getJSON(t, ts.URL+"/healthz", &health)
	if health.Fingerprint != before {
		t.Fatalf("what-if moved the fingerprint %s -> %s", before, health.Fingerprint)
	}
	var q queryResponse
	getJSON(t, ts.URL+"/v1/attribution?method=ground-truth", &q)
	want := directAttribution(t, MethodGroundTruth, testSchedule(t), 1000)
	requireGramsBits(t, "post-what-if GET", want, q.Attribution)
}

// TestDeltaCommitSwapsStateAndWarmsCache verifies a commit: the serving
// schedule changes, the fingerprint moves, and the full-window cache is
// patched for every standard method so the next GETs recompute nothing.
func TestDeltaCommitSwapsStateAndWarmsCache(t *testing.T) {
	srv, _ := newTestServer(t, nil, func(c *Config) { c.EnableDelta = true })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health struct {
		Fingerprint string `json:"config_fingerprint"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	before := health.Fingerprint

	var resp deltaResponse
	req := deltaRequest{Tenant: 3, Cores: intp(48), Method: MethodFairCO2, Commit: true}
	if code := postDelta(t, ts.URL, req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !resp.Committed {
		t.Fatal("commit not acknowledged")
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Fingerprint == before {
		t.Fatal("commit did not move the fingerprint")
	}
	if health.Fingerprint != resp.Fingerprint {
		t.Fatalf("healthz fingerprint %s, delta response %s", health.Fingerprint, resp.Fingerprint)
	}

	committed := testSchedule(t)
	committed.Workloads[3].Cores = 48

	comps := func(m string) float64 { return srv.inst.Computations.With(m).Value() }
	for _, method := range []string{MethodFairCO2, MethodGroundTruth, MethodRUP, MethodDemandProportional} {
		n := comps(method)
		var q queryResponse
		getJSON(t, ts.URL+"/v1/attribution?method="+method, &q)
		if got := comps(method); got != n {
			t.Fatalf("%s: full-window GET after commit recomputed (%v -> %v), want cache hit", method, n, got)
		}
		want := directAttribution(t, method, committed, 1000)
		requireGramsBits(t, method+" after commit", want, q.Attribution)
	}

	// Sub-window queries were not warmed: they must recompute against the
	// committed schedule, not serve stale pre-commit entries.
	var q queryResponse
	getJSON(t, ts.URL+"/v1/attribution?method=rup&period=0:4", &q)
	sub, _, err := subSchedule(committed, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := directAttribution(t, MethodRUP, sub, units.GramsCO2e(1000*4.0/8.0))
	requireGramsBits(t, "sub-window after commit", want, q.Attribution)
}

// TestDeltaValidation exercises the 4xx paths, checking each rejected
// request leaves the engine and serving state untouched.
func TestDeltaValidation(t *testing.T) {
	srv, _ := newTestServer(t, nil, func(c *Config) { c.EnableDelta = true })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  deltaRequest
	}{
		{"tenant out of range", deltaRequest{Tenant: 7, Cores: intp(2)}},
		{"negative tenant", deltaRequest{Tenant: -1, Cores: intp(2)}},
		{"zero cores", deltaRequest{Tenant: 0, Cores: intp(0)}},
		{"zero duration", deltaRequest{Tenant: 0, Duration: intp(0)}},
		{"runs past window", deltaRequest{Tenant: 0, Start: intp(6), Duration: intp(4)}},
		{"unknown method", deltaRequest{Tenant: 0, Cores: intp(2), Method: "nope"}},
	}
	for _, tc := range cases {
		var errBody map[string]string
		if code := postDelta(t, ts.URL, tc.req, &errBody); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, code)
		}
		if errBody["error"] == "" {
			t.Fatalf("%s: empty error body", tc.name)
		}
	}

	var q queryResponse
	getJSON(t, ts.URL+"/v1/attribution?method=ground-truth", &q)
	want := directAttribution(t, MethodGroundTruth, testSchedule(t), 1000)
	requireGramsBits(t, "after rejected deltas", want, q.Attribution)

	// Malformed JSON is a 400, not a decode panic or 500.
	resp, err := http.Post(ts.URL+"/v1/demand/delta", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

// TestDeltaDisabled checks the zero-value Config leaves the endpoint off.
func TestDeltaDisabled(t *testing.T) {
	srv, _ := newTestServer(t, nil, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/demand/delta", "application/json", bytes.NewReader([]byte(`{"tenant":0}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled delta endpoint: status %d, want 404", resp.StatusCode)
	}
	var health struct {
		DeltaEnabled bool `json:"delta_enabled"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.DeltaEnabled {
		t.Fatal("healthz reports delta enabled on a zero-value config")
	}
}

// TestDeltaCommitWarmsCacheBeforePublishing pins the commit order: the
// full-window answers are cached under the new fingerprint before the new
// snapshot is published, so a reader that sees the fingerprint always
// finds them. A reader spins on the snapshot across 200 commits and peeks
// the cache for every standard method whenever the fingerprint moves.
func TestDeltaCommitWarmsCacheBeforePublishing(t *testing.T) {
	srv, _ := newTestServer(t, nil, func(c *Config) { c.EnableDelta = true })
	methods := []string{MethodFairCO2, MethodGroundTruth, MethodRUP, MethodDemandProportional}
	var stop atomic.Bool
	var seen, missing atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		last := srv.snapshot().fp
		for !stop.Load() {
			st := srv.snapshot()
			if st.fp == last {
				continue
			}
			last = st.fp
			seen.Add(1)
			for _, m := range methods {
				key := querySpec{method: m, start: 0, end: st.sched.Slices, tenant: -1}.cacheKey(st.fp)
				if _, ok := srv.cache.peek(key); !ok {
					missing.Add(1)
				}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		// Distinct cores on every commit, so each one publishes a
		// never-seen fingerprint.
		req := deltaRequest{Tenant: i % 4, Cores: intp(100 + i), Commit: true}
		if _, code, err := srv.applyDelta(req); err != nil {
			t.Fatalf("commit %d: status %d: %v", i, code, err)
		}
	}
	stop.Store(true)
	<-done
	if seen.Load() == 0 {
		t.Fatal("reader never observed a commit")
	}
	if n := missing.Load(); n > 0 {
		t.Fatalf("%d full-window entries missing when the reader saw a new fingerprint (%d observed)", n, seen.Load())
	}
}

// FuzzDemandDelta drives arbitrary POST /v1/demand/delta bodies through
// Handler() on a generated 10-workload schedule. The endpoint must never
// panic and must answer 200 or 400; a request that does not commit (a
// what-if or a rejected body) must leave the served fingerprint and the
// bytes of every later full-window GET unchanged, and a commit must
// publish the fingerprint it reports.
func FuzzDemandDelta(f *testing.F) {
	gen := schedule.DefaultGeneratorConfig()
	gen.MaxWorkloads = 10
	sched, err := schedule.Generate(gen, rand.New(rand.NewSource(1)))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		`{"tenant":1,"cores":2}`,
		`{"tenant":3,"cores":48,"method":"ground-truth"}`,
		`{"tenant":0,"start":2,"duration":3,"method":"rup"}`,
		`{"tenant":2,"cores":16,"method":"demand-proportional","commit":true}`,
		`{"tenant":1,"start":1,"duration":9223372036854775807}`,
		`{"tenant":-1}`,
		`{"tenant":99,"cores":0}`,
		`{"tenant":0,"cores":-3}`,
		`{"tenant":0,"method":"nope"}`,
		`{"tenant":0,"extra":1}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	methods := []string{MethodFairCO2, MethodGroundTruth, MethodRUP, MethodDemandProportional}
	f.Fuzz(func(t *testing.T, body []byte) {
		cfg := Config{Schedule: sched, Budget: 1000, Parallelism: 1, EnableDelta: true}
		srv, err := New(cfg, metrics.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		serve := func(method, target string, body []byte) *httptest.ResponseRecorder {
			r := &http.Request{Method: method, URL: &url.URL{Path: target}, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(body))}
			if i := strings.IndexByte(target, '?'); i >= 0 {
				r.URL = &url.URL{Path: target[:i], RawQuery: target[i+1:]}
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			return rec
		}
		full := func() [][]byte {
			out := make([][]byte, len(methods))
			for i, m := range methods {
				rec := serve(http.MethodGet, "/v1/attribution?method="+m, nil)
				if rec.Code != http.StatusOK {
					t.Fatalf("GET %s: status %d: %s", m, rec.Code, rec.Body)
				}
				out[i] = rec.Body.Bytes()
			}
			return out
		}
		fp := srv.snapshot().fp
		before := full()

		rec := serve(http.MethodPost, "/v1/demand/delta", body)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code == http.StatusOK {
			var resp deltaResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("undecodable 200 body: %v", err)
			}
			if resp.Committed {
				if got := fmt.Sprintf("%08x", srv.snapshot().fp); got != resp.Fingerprint {
					t.Fatalf("commit reported fingerprint %s, serving %s", resp.Fingerprint, got)
				}
				return
			}
		}
		if got := srv.snapshot().fp; got != fp {
			t.Fatalf("uncommitted request moved the fingerprint %08x -> %08x", fp, got)
		}
		for i, b := range full() {
			if !bytes.Equal(b, before[i]) {
				t.Fatalf("%s: full-window GET changed after an uncommitted request:\n%s\nwant\n%s", methods[i], b, before[i])
			}
		}
	})
}
