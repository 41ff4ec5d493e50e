package attrserver

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairco2/internal/attribution"
)

func TestFlightGroupSharesOneExecution(t *testing.T) {
	var dups, calls atomic.Int64
	g := newFlightGroup(func() { dups.Add(1) })

	const n = 16
	release := make(chan struct{})
	fn := func() (any, error) {
		calls.Add(1)
		<-release
		return "shared", nil
	}

	var wg sync.WaitGroup
	results := make([]any, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = g.Do(context.Background(), "k", fn)
		}(i)
	}
	// Every non-leader registers as a dup before blocking, so this poll
	// converges exactly when all n callers have attached.
	deadline := time.Now().Add(5 * time.Second)
	for dups.Load() != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("dups = %d after 5s, want %d", dups.Load(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("fn executed %d times, want 1", got)
	}
	for i := range results {
		if errs[i] != nil || results[i].(string) != "shared" {
			t.Errorf("caller %d got (%v, %v), want (shared, nil)", i, results[i], errs[i])
		}
	}
}

func TestFlightGroupKeysAreIndependent(t *testing.T) {
	var calls atomic.Int64
	g := newFlightGroup(nil)
	fn := func() (any, error) { return calls.Add(1), nil }
	if _, err := g.Do(context.Background(), "a", fn); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Do(context.Background(), "b", fn); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("distinct keys shared an execution: %d calls, want 2", got)
	}
}

func TestFlightGroupSequentialCallsRecompute(t *testing.T) {
	var calls atomic.Int64
	g := newFlightGroup(nil)
	fn := func() (any, error) { return calls.Add(1), nil }
	v1, _ := g.Do(context.Background(), "k", fn)
	v2, _ := g.Do(context.Background(), "k", fn)
	if v1.(int64) != 1 || v2.(int64) != 2 {
		t.Errorf("sequential calls got %v, %v; want 1, 2 (no stale sharing)", v1, v2)
	}
}

func TestFlightGroupPropagatesErrors(t *testing.T) {
	g := newFlightGroup(nil)
	boom := errors.New("boom")
	if _, err := g.Do(context.Background(), "k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestFlightGroupWaiterHonorsContext(t *testing.T) {
	var dups atomic.Int64
	g := newFlightGroup(func() { dups.Add(1) })
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		_, _ = g.Do(context.Background(), "k", func() (any, error) {
			<-release
			return "late", nil
		})
	}()
	<-started
	// Wait for the leader's flight to be registered.
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		_, inflight := g.calls["k"]
		g.mu.Unlock()
		if inflight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader flight never registered")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Do(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter got %v, want context.Canceled", err)
	}
	close(release)
}

func TestFlightGroupLateCallerAttachesToRunningExecution(t *testing.T) {
	var dups, calls atomic.Int64
	g := newFlightGroup(func() { dups.Add(1) })
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func() (any, error) {
		calls.Add(1)
		close(started)
		<-release
		return "slow", nil
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if v, err := g.Do(context.Background(), "k", fn); err != nil || v.(string) != "slow" {
			t.Errorf("leader got (%v, %v)", v, err)
		}
	}()
	<-started // the leader's execution is running and blocked

	go func() {
		defer wg.Done()
		// Arriving after the execution began, this caller must attach to
		// it instead of starting a second one.
		if v, err := g.Do(context.Background(), "k", fn); err != nil || v.(string) != "slow" {
			t.Errorf("late caller got (%v, %v)", v, err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for dups.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("dups = %d after 5s, want 1", dups.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("fn executed %d times, want 1", got)
	}
}

// TestLeaderPeeksCacheBeforeComputing covers the miss→attach gap: a query
// misses the cache, the flight that was computing its key then fills the
// cache and unregisters, and the query leads a new flight. The leader's
// peek must return the cached answer without a computation and without
// counting a second hit or miss.
func TestLeaderPeeksCacheBeforeComputing(t *testing.T) {
	srv, _ := newTestServer(t, nil, nil)
	q := querySpec{method: MethodFairCO2, start: 0, end: 6, tenant: -1}
	st := srv.snapshot()
	key := q.cacheKey(st.fp)
	cached := &answer{Method: q.method, Start: q.start, End: q.end}
	srv.cache.put(key, cached, cached.sizeBytes(key), time.Minute)

	v, err := srv.flights.Do(context.Background(), key, func() (any, error) { return srv.lead(st, q, key) })
	if err != nil {
		t.Fatal(err)
	}
	if v.(*answer) != cached {
		t.Errorf("leader returned %+v, want the cached answer", v)
	}
	if got := srv.inst.Computations.With(q.method).Value(); got != 0 {
		t.Errorf("computations = %v, want 0", got)
	}
	if hits, misses := srv.inst.CacheHits.Value(), srv.inst.CacheMisses.Value(); hits != 0 || misses != 0 {
		t.Errorf("peek counted hits=%v misses=%v, want 0 and 0", hits, misses)
	}
}

// TestTimedOutQueryStillFillsCache: a query that stops waiting leaves its
// computation running, and the result lands in the cache for the next one.
func TestTimedOutQueryStillFillsCache(t *testing.T) {
	gated := newGatedMethod(attribution.GroundTruth{Parallelism: 1})
	srv, _ := newTestServer(t, nil, func(c *Config) {
		c.Methods = map[string]attribution.Method{"gated": gated}
	})
	q := querySpec{method: "gated", start: 0, end: 6, tenant: -1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.resolve(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned query got %v, want context.Canceled", err)
	}
	<-gated.started
	close(gated.release)

	key := q.cacheKey(srv.snapshot().fp)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := srv.cache.peek(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned computation never filled the cache")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := srv.resolve(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if got := gated.calls.Load(); got != 1 {
		t.Errorf("method ran %d times, want 1 (the follow-up is a cache hit)", got)
	}
}

// The four tests below keep the names of the deleted batch window suite. The
// window is gone: a cold query now goes cache → flight group → engine, and
// each test checks the same property through Server.resolve.

func TestBatcherMergesWindowedQueries(t *testing.T) {
	gated := newGatedMethod(attribution.GroundTruth{Parallelism: 1})
	srv, _ := newTestServer(t, nil, func(c *Config) {
		c.Methods = map[string]attribution.Method{"gated": gated}
	})
	q := querySpec{method: "gated", start: 0, end: 6, tenant: -1}

	const n = 8
	var wg sync.WaitGroup
	results := make([]*answer, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := srv.resolve(context.Background(), q)
			if err != nil {
				t.Error(err)
			}
			results[i] = a
		}(i)
	}
	<-gated.started
	deadline := time.Now().Add(5 * time.Second)
	for srv.inst.Coalesced.Value() != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %v after 5s, want %d", srv.inst.Coalesced.Value(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gated.release)
	wg.Wait()

	if got := gated.calls.Load(); got != 1 {
		t.Fatalf("method ran %d times, want 1", got)
	}
	if got := srv.inst.Computations.With("gated").Value(); got != 1 {
		t.Errorf("computations = %v, want 1", got)
	}
	for i, a := range results {
		if a == nil || a != results[0] {
			t.Errorf("query %d got %p, want the shared answer %p", i, a, results[0])
		}
	}
}

func TestBatcherZeroWindowComputesImmediately(t *testing.T) {
	clock := newFakeClock()
	srv, _ := newTestServer(t, clock, nil)
	q := querySpec{method: MethodFairCO2, start: 0, end: 6, tenant: -1}
	computations := func() float64 { return srv.inst.Computations.With(q.method).Value() }

	// A cold query computes before resolve returns; there is no window to
	// wait out.
	first, err := srv.resolve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got := computations(); got != 1 {
		t.Fatalf("computations after the cold query = %v, want 1", got)
	}
	if again, _ := srv.resolve(context.Background(), q); again != first || computations() != 1 {
		t.Fatalf("repeat query recomputed (computations = %v)", computations())
	}

	// Once the cached result expires, a sequential query has nothing in
	// flight to attach to and computes afresh.
	clock.Advance(srv.cfg.CacheTTL + time.Second)
	fresh, err := srv.resolve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got := computations(); got != 2 {
		t.Errorf("computations after expiry = %v, want 2", got)
	}
	if !fresh.ComputedAt.After(first.ComputedAt) {
		t.Errorf("expired query reused the stale answer computed at %v", first.ComputedAt)
	}
}

func TestBatcherKeysBatchIndependently(t *testing.T) {
	gated := newGatedMethod(attribution.GroundTruth{Parallelism: 1})
	srv, _ := newTestServer(t, nil, func(c *Config) {
		c.Methods = map[string]attribution.Method{"gated": gated}
	})
	var wg sync.WaitGroup
	for _, q := range []querySpec{
		{method: "gated", start: 0, end: 6, tenant: -1},
		{method: "gated", start: 2, end: 8, tenant: -1},
	} {
		wg.Add(1)
		go func(q querySpec) {
			defer wg.Done()
			if _, err := srv.resolve(context.Background(), q); err != nil {
				t.Error(err)
			}
		}(q)
	}
	// Both computations must be running at once: neither query waits on
	// or attaches to the other's flight.
	deadline := time.Now().Add(5 * time.Second)
	for gated.calls.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("method ran %d times after 5s, want 2 concurrent runs", gated.calls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(gated.release)
	wg.Wait()

	if got := srv.inst.Computations.With("gated").Value(); got != 2 {
		t.Errorf("distinct periods ran %v computations, want 2", got)
	}
	if got := srv.inst.Coalesced.Value(); got != 0 {
		t.Errorf("coalesced = %v, want 0 for distinct keys", got)
	}
}

func TestBatcherWaiterHonorsContext(t *testing.T) {
	gated := newGatedMethod(attribution.GroundTruth{Parallelism: 1})
	srv, _ := newTestServer(t, nil, func(c *Config) {
		c.Methods = map[string]attribution.Method{"gated": gated}
	})
	q := querySpec{method: "gated", start: 0, end: 6, tenant: -1}

	leader := make(chan error, 1)
	go func() {
		_, err := srv.resolve(context.Background(), q)
		leader <- err
	}()
	<-gated.started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.resolve(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter got %v, want context.Canceled", err)
	}
	close(gated.release)
	if err := <-leader; err != nil {
		t.Errorf("leader got %v after the waiter gave up", err)
	}
	if got := gated.calls.Load(); got != 1 {
		t.Errorf("method ran %d times, want 1", got)
	}
}
