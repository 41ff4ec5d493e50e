package clusterserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fairco2/internal/attrserver"
	"fairco2/internal/metrics"
	"fairco2/internal/resilience/faultserver"
)

// startTestFleet spins a fleet and ties its lifetime to the test.
func startTestFleet(t *testing.T, cfg FleetConfig) *Fleet {
	t.Helper()
	f, err := StartFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// queryKey computes the canonical key the cluster routes a GET path on.
func queryKey(t *testing.T, f *Fleet, path string) string {
	t.Helper()
	key, err := f.Srvs[0].CanonicalQueryKey(httptest.NewRequest(http.MethodGet, path, nil))
	if err != nil {
		t.Fatalf("canonical key for %s: %v", path, err)
	}
	return key
}

// entriesByOwnership splits replica indices into the owner of path's key
// and everyone else.
func entriesByOwnership(t *testing.T, f *Fleet, key string) (owner int, others []int) {
	t.Helper()
	id := f.Nodes[0].Ring().Lookup(key)
	owner = -1
	for i, rid := range f.IDs {
		if rid == id {
			owner = i
		} else {
			others = append(others, i)
		}
	}
	if owner < 0 {
		t.Fatalf("key %q owned by %q, not a fleet member", key, id)
	}
	return owner, others
}

func get(t *testing.T, url string, hdr http.Header) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vv := range hdr {
		req.Header[k] = vv
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// series extracts one sample from the fleet's registry by family name and
// an exact label-value set.
func series(f *Fleet, name string, labels ...string) float64 {
	for _, fam := range f.Reg.Gather() {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Samples {
			if len(s.LabelValues) != len(labels) {
				continue
			}
			match := true
			for i := range labels {
				if s.LabelValues[i] != labels[i] {
					match = false
					break
				}
			}
			if match {
				return s.Value
			}
		}
	}
	return 0
}

// TestQueryForwardsSingleHopToOwner: a query entering a non-owner takes
// exactly one forwarding hop; entering the owner takes none.
func TestQueryForwardsSingleHopToOwner(t *testing.T) {
	f := startTestFleet(t, FleetConfig{Replicas: 3})
	path := "/v1/attribution?method=rup&period=0:8"
	key := queryKey(t, f, path)
	owner, others := entriesByOwnership(t, f, key)

	resp, body := get(t, f.URLs[others[0]]+path, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("via non-owner: status %d\n%s", resp.StatusCode, body)
	}
	if got := series(f, "fairco2_cluster_forwards_total", f.IDs[others[0]], f.IDs[owner]); got != 1 {
		t.Errorf("forwards from %s to %s = %v, want 1", f.IDs[others[0]], f.IDs[owner], got)
	}
	if got := series(f, "fairco2_cluster_local_requests_total", f.IDs[owner]); got != 1 {
		t.Errorf("owner local count = %v, want 1", got)
	}

	resp, body = get(t, f.URLs[owner]+path, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("via owner: status %d\n%s", resp.StatusCode, body)
	}
	if got := f.FamilyTotal("fairco2_cluster_forwards_total"); got != 1 {
		t.Errorf("cluster-wide forwards = %v after owner-entry query, want still 1", got)
	}
	// Both requests resolved to one computation: the owner's cache is the
	// cluster-wide dedup point.
	if got := f.FamilyTotal("fairco2_attrserver_computations_total"); got != 1 {
		t.Errorf("cluster-wide computations = %v, want 1", got)
	}
}

// TestForwardedRequestNeverReforwards is the loop guard: a request
// carrying the forwarded header that lands on a non-owner answers 421,
// it does not hop again.
func TestForwardedRequestNeverReforwards(t *testing.T) {
	f := startTestFleet(t, FleetConfig{Replicas: 3})
	path := "/v1/attribution?method=rup&period=0:8"
	key := queryKey(t, f, path)
	_, others := entriesByOwnership(t, f, key)

	hdr := http.Header{HeaderForwarded: []string{"test"}}
	resp, body := get(t, f.URLs[others[0]]+path, hdr)
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted forwarded request: status %d, want 421\n%s", resp.StatusCode, body)
	}
	if got := series(f, "fairco2_cluster_misrouted_total", f.IDs[others[0]]); got != 1 {
		t.Errorf("misrouted counter = %v, want 1", got)
	}
	if got := f.FamilyTotal("fairco2_cluster_forwards_total"); got != 0 {
		t.Errorf("misrouted request was re-forwarded %v times", got)
	}
}

// TestTenantRateLimitSheds: a tenant exhausting its bucket gets 429 with
// both Retry-After forms; other tenants are unaffected; a forwarded-in
// request bypasses the entry check (it was admitted upstream).
func TestTenantRateLimitSheds(t *testing.T) {
	f := startTestFleet(t, FleetConfig{
		Replicas:  1,
		Admission: AdmissionConfig{Rate: 1, Burst: 2},
	})
	path := "/v1/attribution?method=rup&period=0:8"
	hdr := http.Header{HeaderTenant: []string{"team-a"}}
	for i := 0; i < 2; i++ {
		if resp, body := get(t, f.URLs[0]+path, hdr); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d\n%s", i, resp.StatusCode, body)
		}
	}
	resp, body := get(t, f.URLs[0]+path, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate request: status %d, want 429\n%s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer second count", ra)
	}
	if ms := resp.Header.Get(HeaderRetryAfterMs); ms == "" {
		t.Errorf("429 without %s header", HeaderRetryAfterMs)
	}
	if got := series(f, "fairco2_cluster_shed_total", "0", "tenant-rate"); got != 1 {
		t.Errorf("tenant-rate shed counter = %v, want 1", got)
	}

	if resp, body := get(t, f.URLs[0]+path, http.Header{HeaderTenant: []string{"team-b"}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("unrelated tenant: status %d\n%s", resp.StatusCode, body)
	}
	hdr.Set(HeaderForwarded, "9")
	if resp, body := get(t, f.URLs[0]+path, hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded-in request hit the entry bucket: status %d\n%s", resp.StatusCode, body)
	}
}

// TestQueueDepthSheds: with MaxQueue slots all busy on slow
// computations, the next locally-served request sheds with 429 and the
// configured Retry-After, and service recovers once slots free up.
func TestQueueDepthSheds(t *testing.T) {
	f := startTestFleet(t, FleetConfig{
		Replicas:    1,
		ServiceTime: 300 * time.Millisecond,
		Admission:   AdmissionConfig{MaxQueue: 2, RetryAfter: 1500 * time.Millisecond},
	})
	paths := DistinctPeriods(64, 3)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := get(t, f.URLs[0]+"/v1/attribution?method=synthetic&period="+paths[i], nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("slot-holding query %d: status %d\n%s", i, resp.StatusCode, body)
			}
		}(i)
	}
	// Wait until both slots are actually held before probing.
	deadline := time.Now().Add(5 * time.Second)
	for f.Nodes[0].queueDepth.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("slots never filled")
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := get(t, f.URLs[0]+"/v1/attribution?method=synthetic&period="+paths[2], nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth query: status %d, want 429\n%s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want %q (ceil of 1.5s)", ra, "2")
	}
	if ms := resp.Header.Get(HeaderRetryAfterMs); ms != "1500" {
		t.Errorf("%s = %q, want 1500", HeaderRetryAfterMs, ms)
	}
	if got := series(f, "fairco2_cluster_shed_total", "0", "queue-depth"); got != 1 {
		t.Errorf("queue-depth shed counter = %v, want 1", got)
	}
	wg.Wait()
	if resp, body = get(t, f.URLs[0]+"/v1/attribution?method=synthetic&period="+paths[2], nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after slots freed: status %d\n%s", resp.StatusCode, body)
	}
}

// postDelta sends a demand delta and decodes the response.
func postDelta(t *testing.T, url string, body map[string]any, hdr http.Header) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/demand/delta", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vv := range hdr {
		req.Header[k] = vv
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decoding delta response %q: %v", raw, err)
		}
	}
	return resp, out
}

// TestDeltaCommitReplicatesToAllPeers: a commit entering any replica
// lands on the tenant's owner and replicates to every peer, converging
// all fingerprints; a what-if touches nothing.
func TestDeltaCommitReplicatesToAllPeers(t *testing.T) {
	f := startTestFleet(t, FleetConfig{Replicas: 3})
	before := f.Srvs[0].Fingerprint()

	resp, out := postDelta(t, f.URLs[1], map[string]any{"tenant": 1, "cores": 7}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("what-if: status %d: %v", resp.StatusCode, out)
	}
	for i, srv := range f.Srvs {
		if srv.Fingerprint() != before {
			t.Fatalf("what-if mutated replica %d's schedule", i)
		}
	}
	if got := f.FamilyTotal("fairco2_cluster_replications_total"); got != 0 {
		t.Fatalf("what-if replicated %v times", got)
	}

	resp, out = postDelta(t, f.URLs[1], map[string]any{"tenant": 1, "cores": 7, "commit": true}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit: status %d: %v", resp.StatusCode, out)
	}
	if committed, _ := out["committed"].(bool); !committed {
		t.Fatalf("commit response not marked committed: %v", out)
	}
	want := f.Srvs[0].Fingerprint()
	if want == before {
		t.Fatal("commit did not rotate the fingerprint")
	}
	for i, srv := range f.Srvs {
		if srv.Fingerprint() != want {
			t.Errorf("replica %d fingerprint %08x, want %08x: replication did not converge", i, srv.Fingerprint(), want)
		}
	}
	if got := f.FamilyTotal("fairco2_cluster_replications_total"); got != 2 {
		t.Errorf("replications = %v, want 2 (owner to both peers, no re-broadcast)", got)
	}
	if fp, _ := out["config_fingerprint"].(string); fp != fmt.Sprintf("%08x", want) {
		t.Errorf("response fingerprint %q, want %08x", fp, want)
	}
}

// TestDeltaOwnerUnreachableFailsOver: with the owner dark, a commit fails
// over to the next ring successor — here the entry replica itself — which
// applies it as acting owner. Commits are idempotent whole-workload
// replacements, so an acting-owner apply racing the real owner's recovery
// still converges; availability wins.
func TestDeltaOwnerUnreachableFailsOver(t *testing.T) {
	f := startTestFleet(t, FleetConfig{Replicas: 2})
	// Find a tenant whose delta owner is replica 1, then black it out.
	fp := f.Srvs[0].Fingerprint()
	tenant := -1
	for id := 0; id < 4; id++ {
		if f.Nodes[0].Ring().Lookup(deltaKey(fp, id)) == "1" {
			tenant = id
			break
		}
	}
	if tenant < 0 {
		t.Skip("no tenant owned by replica 1 under this fingerprint")
	}
	f.CloseReplica(1)
	resp, out := postDelta(t, f.URLs[0], map[string]any{"tenant": tenant, "cores": 9, "commit": true}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta with dead owner: status %d, want 200 via failover: %v", resp.StatusCode, out)
	}
	if out["committed"] != true {
		t.Fatalf("failover delta not committed: %v", out)
	}
	if f.Srvs[0].Fingerprint() == fp {
		t.Fatal("committed failover delta did not change the surviving replica's schedule")
	}
	if got := f.Nodes[0].inst.Failovers.Value(); got < 1 {
		t.Fatalf("failovers counter = %v, want >= 1", got)
	}
	if got := f.Nodes[0].CommitSeq(); got != 1 {
		t.Fatalf("commit log length = %d, want 1", got)
	}
}

// TestQueryFailoverOnBlackout: with the owner's listener dark, entry
// replicas compute locally — availability over dedup — and recover to
// forwarding when it returns. The blackout is injected with the
// resilience fault server so the outage script is exact.
func TestQueryFailoverOnBlackout(t *testing.T) {
	reg := metrics.NewRegistry()
	sched := FleetSchedule(64)
	mk := func(replica string) *attrserver.Server {
		cfg := attrserver.DefaultConfig()
		cfg.Schedule = sched
		cfg.Budget = 1e6
		cfg.Parallelism = 1
		cfg.Replica = replica
		srv, err := attrserver.New(cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv0, srv1 := mk("0"), mk("1")

	// Replica 1 sits behind the fault server; replica 0's peer map points
	// at it, so scripted faults are exactly what 0 sees.
	hold1 := &handlerHolder{}
	fs := faultserver.New(hold1)
	defer fs.Close()
	node0, err := New(Config{ReplicaID: "0", Peers: map[string]string{"1": fs.URL()}, Server: srv0}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts0 := httptest.NewServer(node0.Handler())
	defer ts0.Close()
	node1, err := New(Config{ReplicaID: "1", Peers: map[string]string{"0": ts0.URL}, Server: srv1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	hold1.set(node1.Handler())

	// A path owned by replica 1, entered through replica 0.
	var path string
	for _, p := range DistinctPeriods(64, 64) {
		cand := "/v1/attribution?method=rup&period=" + p
		key, err := srv0.CanonicalQueryKey(httptest.NewRequest(http.MethodGet, cand, nil))
		if err != nil {
			t.Fatal(err)
		}
		if node0.Ring().Lookup(key) == "1" {
			path = cand
			break
		}
	}
	if path == "" {
		t.Fatal("no period owned by replica 1")
	}

	resp, body := get(t, ts0.URL+path, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy forward: status %d\n%s", resp.StatusCode, body)
	}
	if node0.inst.Forwards.With("1").Value() != 1 {
		t.Fatal("healthy query did not forward")
	}

	fs.Program(faultserver.Step{Reset: true, Sticky: true}) // sustained blackout
	resp, body = get(t, ts0.URL+path, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query during blackout: status %d, want 200 via local fallback\n%s", resp.StatusCode, body)
	}
	if got := node0.inst.ForwardErrors.Value(); got != 1 {
		t.Errorf("forward errors = %v, want 1", got)
	}
	if got := node0.inst.Local.Value(); got != 1 {
		t.Errorf("entry local computations = %v, want 1 (the fallback)", got)
	}

	fs.Clear() // recovery: forwarding resumes
	resp, body = get(t, ts0.URL+"/v1/share?method=rup&period="+strings.TrimPrefix(path, "/v1/attribution?method=rup&period="), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after recovery: status %d\n%s", resp.StatusCode, body)
	}
	if node0.inst.Forwards.With("1").Value() != 2 {
		t.Errorf("forwards after recovery = %v, want 2", node0.inst.Forwards.With("1").Value())
	}
}

// TestClusterInfoEndpoint pins the introspection surface.
func TestClusterInfoEndpoint(t *testing.T) {
	f := startTestFleet(t, FleetConfig{
		Replicas:  2,
		Admission: AdmissionConfig{Rate: 10, Burst: 20, MaxQueue: 4},
	})
	resp, body := get(t, f.URLs[1]+"/v1/cluster", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d\n%s", resp.StatusCode, body)
	}
	var info struct {
		Replica   string   `json:"replica"`
		Peers     []string `json:"peers"`
		VNodes    int      `json:"vnodes"`
		Admission struct {
			Rate     float64 `json:"rate"`
			MaxQueue int     `json:"max_queue"`
		} `json:"admission"`
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if info.Replica != "1" || len(info.Peers) != 2 || info.VNodes != DefaultVNodes {
		t.Errorf("info = %+v", info)
	}
	if info.Admission.Rate != 10 || info.Admission.MaxQueue != 4 {
		t.Errorf("admission info = %+v", info.Admission)
	}
}

// TestInvalidQueryRendersLocal400: queries the canonical parser rejects
// are answered locally with the attrserver's own 400, not routed.
func TestInvalidQueryRendersLocal400(t *testing.T) {
	f := startTestFleet(t, FleetConfig{Replicas: 2})
	resp, body := get(t, f.URLs[0]+"/v1/attribution?method=unknown", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400\n%s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "unknown method") {
		t.Errorf("unexpected 400 body: %s", body)
	}
	if got := f.FamilyTotal("fairco2_cluster_forwards_total"); got != 0 {
		t.Errorf("invalid query forwarded %v times", got)
	}
}

// TestNodeConfigValidation pins the constructor's error surface.
func TestNodeConfigValidation(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := attrserver.DefaultConfig()
	cfg.Schedule = FleetSchedule(16)
	cfg.Budget = 1e6
	srv, err := attrserver.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Server: srv}, reg); err == nil {
		t.Error("empty replica ID accepted")
	}
	if _, err := New(Config{ReplicaID: "0"}, reg); err == nil {
		t.Error("nil server accepted")
	}
	if _, err := New(Config{ReplicaID: "0", Server: srv, Peers: map[string]string{"1": ""}}, reg); err == nil {
		t.Error("peer without URL accepted")
	}
	if _, err := New(Config{ReplicaID: "0", Server: srv, Admission: AdmissionConfig{Rate: -1}}, reg); err == nil {
		t.Error("invalid admission config accepted")
	}
	if _, err := New(Config{ReplicaID: "0", Server: srv, Peers: map[string]string{"0": "ignored", "1": "http://x"}}, reg); err != nil {
		t.Errorf("self-entry in peer map rejected: %v", err)
	}
}

// TestFleetValidation pins the harness constructor.
func TestFleetValidation(t *testing.T) {
	if _, err := StartFleet(FleetConfig{}); err == nil {
		t.Error("zero replicas accepted")
	}
}
