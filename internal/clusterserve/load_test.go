package clusterserve

import (
	"fmt"
	"math/rand"
	"net/http"
	"testing"
	"time"
)

// TestZeroDuplicateComputationsClusterWide is the dedup headline: 1200
// zipfian requests over 300 distinct periods — every request from a
// distinct tenant — enter a 3-replica cluster through all entries, and
// the summed per-replica computation counters equal exactly the number
// of unique computation keys. Hot keys and cold keys alike compute once,
// cluster-wide, because routing sends every identical query to one
// owner whose result table absorbs the rest.
func TestZeroDuplicateComputationsClusterWide(t *testing.T) {
	const (
		requests = 1200
		nPeriods = 300
	)
	f := startTestFleet(t, FleetConfig{
		Replicas: 3,
		Schedule: FleetSchedule(64),
		// Distinct-per-request tenants churn the admission table far past
		// its bound; fresh tenants must still always be admitted.
		Admission: AdmissionConfig{Rate: 1000, Burst: 4, MaxTenants: 512},
	})

	periods := DistinctPeriods(64, nPeriods)
	zipf := rand.NewZipf(rand.New(rand.NewSource(42)), 1.2, 1, nPeriods-1)
	paths := make([]string, requests)
	for i := range paths {
		method := MethodRUPFor(i)
		paths[i] = fmt.Sprintf("/v1/attribution?method=%s&period=%s", method, periods[zipf.Uint64()])
	}
	unique := map[string]bool{}
	for _, p := range paths {
		unique[p] = true
	}

	stats := RunLoad(LoadConfig{
		Entries:  f.URLs,
		Workers:  12,
		Requests: requests,
		Path:     func(seq int) string { return paths[seq] },
		Header: func(seq int) http.Header {
			return http.Header{HeaderTenant: []string{fmt.Sprintf("tenant-%d", seq)}}
		},
	})
	if stats.Errors != 0 {
		t.Fatalf("load run saw %d errors", stats.Errors)
	}
	if stats.Shed != 0 {
		t.Fatalf("fresh tenants were shed %d times; full-bucket eviction is supposed to be lossless", stats.Shed)
	}
	if stats.Done != requests {
		t.Fatalf("completed %d of %d requests", stats.Done, requests)
	}
	if got := f.FamilyTotal("fairco2_attrserver_computations_total"); got != float64(len(unique)) {
		t.Errorf("cluster-wide computations = %v over %d requests, want exactly %d (one per unique key)",
			got, requests, len(unique))
	}
	// Every node tracks at most its admission bound of tenants despite
	// seeing ~requests distinct tenant keys.
	for i, n := range f.Nodes {
		if n.admit == nil {
			t.Fatalf("replica %d has no admission table", i)
		}
		if got := n.admit.len(); got > 512 {
			t.Errorf("replica %d tracks %d tenants, bound is 512", i, got)
		}
	}
}

// MethodRUPFor alternates the two cheap methods so the key space mixes
// methods as well as periods.
func MethodRUPFor(i int) string {
	if i%2 == 0 {
		return "rup"
	}
	return "demand-proportional"
}

// scalingRun measures closed-loop throughput against a fresh fleet of
// the given size. Service time is synthetic (sleep-backed), so capacity
// is admission slots per replica over service time — replicas add
// capacity even on a single-core host, and a long service time keeps
// per-request CPU overhead (HTTP, race detector) a small fraction of the
// cycle. Worker count stays below aggregate slot capacity so throughput
// measures service capacity, not shed/retry pacing; every request is a
// distinct period, so nothing is served from cache.
func scalingRun(t *testing.T, replicas int, duration time.Duration) LoadStats {
	t.Helper()
	const (
		serviceTime = 100 * time.Millisecond
		maxQueue    = 8
	)
	f := startTestFleet(t, FleetConfig{
		Replicas:    replicas,
		VNodes:      256,
		Schedule:    FleetSchedule(96),
		ServiceTime: serviceTime,
		Admission:   AdmissionConfig{MaxQueue: maxQueue, RetryAfter: 25 * time.Millisecond},
	})
	periods := DistinctPeriods(96, 4000)
	stats := RunLoad(LoadConfig{
		Entries:  f.URLs,
		Workers:  6 * replicas,
		Duration: duration,
		Path: func(seq int) string {
			return "/v1/attribution?method=synthetic&period=" + periods[seq%len(periods)]
		},
	})
	if stats.Errors != 0 {
		t.Fatalf("%d-replica run saw %d errors", replicas, stats.Errors)
	}
	if stats.Done == 0 {
		t.Fatalf("%d-replica run completed nothing", replicas)
	}
	return stats
}

// TestThroughputScalesAcrossReplicas is the scaling headline: the same
// synthetic workload against 1 and 4 replicas must scale throughput by
// at least 3.2x. Linear would be 4.0; the bound leaves room for ring
// imbalance and forwarding overhead, nothing more.
func TestThroughputScalesAcrossReplicas(t *testing.T) {
	duration := 1500 * time.Millisecond
	if testing.Short() {
		duration = time.Second
	}
	one := scalingRun(t, 1, duration)
	four := scalingRun(t, 4, duration)
	ratio := four.Throughput() / one.Throughput()
	t.Logf("1 replica: %d done in %v (%.0f rps); 4 replicas: %d done in %v (%.0f rps); ratio %.2fx",
		one.Done, one.Elapsed.Round(time.Millisecond), one.Throughput(),
		four.Done, four.Elapsed.Round(time.Millisecond), four.Throughput(), ratio)
	if ratio < 3.2 {
		t.Errorf("4-replica throughput only %.2fx of 1-replica, want >= 3.2x", ratio)
	}
}

// TestOverloadShedsThenRecovers scripts an overload: offered load far
// above cluster capacity must be answered with 429s (never errors, never
// queue collapse), workers honoring Retry-After must still complete
// work, and once the burst ends the cluster serves normally again.
func TestOverloadShedsThenRecovers(t *testing.T) {
	f := startTestFleet(t, FleetConfig{
		Replicas:    2,
		Schedule:    FleetSchedule(96),
		ServiceTime: 50 * time.Millisecond,
		Admission:   AdmissionConfig{MaxQueue: 2, RetryAfter: 20 * time.Millisecond},
	})
	periods := DistinctPeriods(96, 2000)
	stats := RunLoad(LoadConfig{
		Entries:  f.URLs,
		Workers:  24, // ~6x the 4 admission slots
		Duration: 700 * time.Millisecond,
		Path: func(seq int) string {
			return "/v1/attribution?method=synthetic&period=" + periods[seq%len(periods)]
		},
	})
	if stats.Errors != 0 {
		t.Fatalf("overload produced %d hard errors; shedding must stay at 429", stats.Errors)
	}
	if stats.Shed == 0 {
		t.Error("6x overload was never shed; queue bound is not engaging")
	}
	if stats.Done == 0 {
		t.Error("overload starved all requests; admitted work should still complete")
	}
	if got := f.FamilyTotal("fairco2_cluster_shed_total"); got != float64(stats.Shed) {
		t.Errorf("shed counter = %v, load driver saw %d shed responses", got, stats.Shed)
	}
	t.Logf("overload: %d done, %d shed in %v", stats.Done, stats.Shed, stats.Elapsed.Round(time.Millisecond))

	// Recovery: with the burst over, a plain query answers immediately.
	resp, body := get(t, f.URLs[0]+"/v1/attribution?method=rup&period=0:8", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-overload query: status %d\n%s", resp.StatusCode, body)
	}
	if depth := f.FamilyTotal("fairco2_cluster_queue_depth"); depth != 0 {
		t.Errorf("queue depth %v after load drained, want 0", depth)
	}
}

// TestLoadSurvivesReplicaBlackout kills one of four replicas mid-run and
// requires the surviving entries to answer every request — keys owned by
// the dead replica fall back to local computation (availability over
// dedup), counted by the forward-error metric.
func TestLoadSurvivesReplicaBlackout(t *testing.T) {
	f := startTestFleet(t, FleetConfig{Replicas: 4, Schedule: FleetSchedule(64)})
	periods := DistinctPeriods(64, 300)
	path := func(seq int) string {
		return "/v1/attribution?method=rup&period=" + periods[seq%len(periods)]
	}
	survivors := f.URLs[:3]

	healthy := RunLoad(LoadConfig{Entries: survivors, Workers: 8, Requests: 300, Path: path})
	if healthy.Errors != 0 {
		t.Fatalf("healthy phase saw %d errors", healthy.Errors)
	}

	f.CloseReplica(3)
	dark := RunLoad(LoadConfig{Entries: survivors, Workers: 8, Requests: 600, Path: path})
	if dark.Errors != 0 {
		t.Fatalf("blackout phase saw %d errors; owners going dark must fall back locally", dark.Errors)
	}
	if dark.Done != 600 {
		t.Fatalf("blackout phase completed %d of 600", dark.Done)
	}
	if got := f.FamilyTotal("fairco2_cluster_forward_errors_total"); got == 0 {
		t.Error("no forward errors recorded; replica 3 owned none of 300 periods?")
	}
}
