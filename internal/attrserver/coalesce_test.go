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

// do runs fn through the cache the way Server.resolve runs a computation:
// a hit returns at once, a miss attaches to the key's flight or leads a
// new one whose result fills the entry with the given TTL.
func do(ctx context.Context, c *resultCache, key string, ttl time.Duration, fn func() (any, error)) (any, error) {
	v, fl, lead := c.acquire(key)
	if fl == nil {
		return v, nil
	}
	if lead {
		go func() {
			v, err := fn()
			c.fill(key, fl, v, 1, ttl, err)
		}()
	}
	return fl.wait(ctx)
}

func TestFlightGroupSharesOneExecution(t *testing.T) {
	c, inst := newTestCache(1<<20, newFakeClock())
	dups := inst.Coalesced

	const n = 16
	var calls atomic.Int64
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
			results[i], errs[i] = do(context.Background(), c, "k", time.Minute, fn)
		}(i)
	}
	// Every non-leader counts as coalesced before blocking, so this poll
	// converges exactly when all n callers have attached.
	deadline := time.Now().Add(5 * time.Second)
	for dups.Value() != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("dups = %v after 5s, want %d", dups.Value(), n-1)
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
	c, _ := newTestCache(1<<20, newFakeClock())
	var calls atomic.Int64
	fn := func() (any, error) { return calls.Add(1), nil }
	if _, err := do(context.Background(), c, "a", time.Minute, fn); err != nil {
		t.Fatal(err)
	}
	if _, err := do(context.Background(), c, "b", time.Minute, fn); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("distinct keys shared an execution: %d calls, want 2", got)
	}
}

// A result with a zero TTL is not cacheable: the flight answers its
// callers and leaves nothing behind, so the next caller recomputes.
func TestFlightGroupSequentialCallsRecompute(t *testing.T) {
	c, _ := newTestCache(1<<20, newFakeClock())
	var calls atomic.Int64
	fn := func() (any, error) { return calls.Add(1), nil }
	v1, _ := do(context.Background(), c, "k", 0, fn)
	v2, _ := do(context.Background(), c, "k", 0, fn)
	if v1.(int64) != 1 || v2.(int64) != 2 {
		t.Errorf("sequential calls got %v, %v; want 1, 2 (no stale sharing)", v1, v2)
	}
}

// An error reaches the caller and is never cached: the next caller
// computes afresh.
func TestFlightGroupPropagatesErrors(t *testing.T) {
	c, _ := newTestCache(1<<20, newFakeClock())
	boom := errors.New("boom")
	if _, err := do(context.Background(), c, "k", time.Minute, func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	v, err := do(context.Background(), c, "k", time.Minute, func() (any, error) { return "ok", nil })
	if err != nil || v.(string) != "ok" {
		t.Errorf("caller after the failure got (%v, %v), want (ok, nil)", v, err)
	}
}

func TestFlightGroupWaiterHonorsContext(t *testing.T) {
	c, _ := newTestCache(1<<20, newFakeClock())
	// Lead the flight by hand, so it is registered before the waiter
	// arrives and stays in flight until filled below.
	_, fl, lead := c.acquire("k")
	if !lead {
		t.Fatal("first acquire did not lead")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := do(ctx, c, "k", time.Minute, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter got %v, want context.Canceled", err)
	}
	c.fill("k", fl, "late", 1, time.Minute, nil)
}

func TestFlightGroupLateCallerAttachesToRunningExecution(t *testing.T) {
	c, inst := newTestCache(1<<20, newFakeClock())
	dups := inst.Coalesced
	var calls atomic.Int64
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
		if v, err := do(context.Background(), c, "k", time.Minute, fn); err != nil || v.(string) != "slow" {
			t.Errorf("leader got (%v, %v)", v, err)
		}
	}()
	<-started // the leader's execution is running and blocked

	go func() {
		defer wg.Done()
		// Arriving after the execution began, this caller must attach to
		// it instead of starting a second one.
		if v, err := do(context.Background(), c, "k", time.Minute, fn); err != nil || v.(string) != "slow" {
			t.Errorf("late caller got (%v, %v)", v, err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for dups.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("dups = %v after 5s, want 1", dups.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("fn executed %d times, want 1", got)
	}
}

// TestLeaderPeeksCacheBeforeComputing covers the miss→attach gap: a flight
// must fill the cache before it releases its waiters, so once any query
// holds the answer, the next query for the key is a hit and nothing is
// computed twice.
func TestLeaderPeeksCacheBeforeComputing(t *testing.T) {
	gated := newGatedMethod(attribution.GroundTruth{Parallelism: 1})
	srv, _ := newTestServer(t, nil, func(c *Config) {
		c.Methods = map[string]attribution.Method{"gated": gated}
	})
	q := querySpec{method: "gated", start: 0, end: 6, tenant: -1}
	key := q.cacheKey(srv.snapshot().fp)

	waiter := make(chan *answer, 1)
	go func() {
		a, err := srv.resolve(context.Background(), q)
		if err != nil {
			t.Error(err)
		}
		waiter <- a
	}()
	<-gated.started
	close(gated.release)
	first := <-waiter
	if v, ok := srv.cache.peek(key); !ok || v.(*answer) != first {
		t.Fatalf("peek right after the flight answered = (%v, %v), want the computed answer", v, ok)
	}

	again, err := srv.resolve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Errorf("query after the fill returned %+v, want the cached answer", again)
	}
	if got := srv.inst.Computations.With(q.method).Value(); got != 1 {
		t.Errorf("computations = %v, want 1", got)
	}
	if hits, misses := srv.inst.CacheHits.Value(), srv.inst.CacheMisses.Value(); hits != 1 || misses != 1 {
		t.Errorf("hits=%v misses=%v, want 1 and 1", hits, misses)
	}
}

// TestCachePutOverInFlightKey: a delta commit's put over a key that a
// query is computing is visible to peek at once; the flight still answers
// its waiters, but its result no longer replaces the put value.
func TestCachePutOverInFlightKey(t *testing.T) {
	c, inst := newTestCache(1<<20, newFakeClock())
	_, fl, lead := c.acquire("k")
	if !lead {
		t.Fatal("first acquire did not lead")
	}
	_, waitFl, _ := c.acquire("k")
	if waitFl != fl {
		t.Fatal("second acquire did not attach to the flight")
	}

	c.put("k", "warm", 10, time.Minute)
	if v, ok := c.peek("k"); !ok || v.(string) != "warm" {
		t.Fatalf("peek after put = (%v, %v), want (warm, true)", v, ok)
	}

	c.fill("k", fl, "computed", 10, time.Minute, nil)
	if v, err := waitFl.wait(context.Background()); err != nil || v.(string) != "computed" {
		t.Errorf("waiter got (%v, %v), want (computed, nil)", v, err)
	}
	if v, ok := c.peek("k"); !ok || v.(string) != "warm" {
		t.Errorf("peek after the stale fill = (%v, %v), want (warm, true)", v, ok)
	}
	if entries, bytes := c.stats(); entries != 1 || bytes != 10 {
		t.Errorf("stats = (%d, %d), want (1, 10)", entries, bytes)
	}
	if got := inst.Coalesced.Value(); got != 1 {
		t.Errorf("coalesced = %v, want 1", got)
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
// window is gone: a cold query now goes from its cache miss straight to the
// key's flight, and each test checks the same property through
// Server.resolve.

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
