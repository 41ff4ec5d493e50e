package attrserver

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fairco2/internal/metrics"
)

// fakeClock is a mutable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestCache(budget int64, clock *fakeClock) (*resultCache, *Instruments) {
	inst := NewInstruments(metrics.NewRegistry())
	return newResultCache(budget, clock.Now, inst), inst
}

var errAbandoned = errors.New("lookup abandoned")

// lookup acquires key the way a query does, counting a hit or a miss, and
// abandons the flight a miss registers, so the table is left as it was.
func lookup(c *resultCache, key string) (any, bool) {
	v, fl, lead := c.acquire(key)
	if fl == nil {
		return v, true
	}
	if lead {
		c.fill(key, fl, nil, 0, 0, errAbandoned)
	}
	return nil, false
}

func TestCacheHitMissAndTTLExpiry(t *testing.T) {
	clock := newFakeClock()
	c, inst := newTestCache(1<<20, clock)

	if _, ok := lookup(c, "k"); ok {
		t.Fatal("empty cache returned a value")
	}
	c.put("k", "v", 100, time.Minute)
	v, ok := lookup(c, "k")
	if !ok || v.(string) != "v" {
		t.Fatalf("get after put = (%v, %v), want (v, true)", v, ok)
	}
	clock.Advance(59 * time.Second)
	if _, ok := lookup(c, "k"); !ok {
		t.Fatal("entry expired before its TTL")
	}
	clock.Advance(2 * time.Second)
	if _, ok := lookup(c, "k"); ok {
		t.Fatal("entry survived past its TTL")
	}
	if got := inst.CacheHits.Value(); got != 2 {
		t.Errorf("hits = %v, want 2", got)
	}
	if got := inst.CacheMisses.Value(); got != 2 {
		t.Errorf("misses = %v, want 2", got)
	}
	// The expired entry was dropped and counted as an eviction.
	if got := inst.CacheEvictions.Value(); got != 1 {
		t.Errorf("evictions = %v, want 1", got)
	}
	if entries, bytes := c.stats(); entries != 0 || bytes != 0 {
		t.Errorf("stats after expiry = (%d, %d), want (0, 0)", entries, bytes)
	}
}

func TestCacheLRUEvictionUnderByteBudget(t *testing.T) {
	clock := newFakeClock()
	// A 300-byte budget: three 100-byte entries fit, the fourth evicts the
	// least recently used.
	c, inst := newTestCache(300, clock)
	for _, k := range []string{"a", "b", "c"} {
		c.put(k, k, 100, time.Hour)
	}
	// Touch "a" so "b" becomes the LRU victim.
	if _, ok := lookup(c, "a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.put("d", "d", 100, time.Hour)

	if _, ok := lookup(c, "b"); ok {
		t.Error("LRU victim b survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := lookup(c, k); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	if got := inst.CacheEvictions.Value(); got != 1 {
		t.Errorf("evictions = %v, want 1", got)
	}
	if entries, bytes := c.stats(); entries != 3 || bytes != 300 {
		t.Errorf("stats = (%d, %d), want (3, 300)", entries, bytes)
	}
}

func TestCacheReplaceAndOversizedAndZeroTTL(t *testing.T) {
	clock := newFakeClock()
	c, _ := newTestCache(300, clock)

	c.put("k", "old", 100, time.Hour)
	c.put("k", "new", 200, time.Hour)
	v, ok := lookup(c, "k")
	if !ok || v.(string) != "new" {
		t.Fatalf("replaced entry = (%v, %v), want (new, true)", v, ok)
	}
	if entries, bytes := c.stats(); entries != 1 || bytes != 200 {
		t.Errorf("stats after replace = (%d, %d), want (1, 200)", entries, bytes)
	}

	// An entry larger than the whole budget is not cached (and evicts nothing).
	c.put("huge", "x", 301, time.Hour)
	if _, ok := lookup(c, "huge"); ok {
		t.Error("oversized entry was cached")
	}
	if _, ok := lookup(c, "k"); !ok {
		t.Error("oversized put evicted an unrelated entry")
	}

	// Non-positive TTLs mean "do not cache".
	c.put("transient", "x", 10, 0)
	if _, ok := lookup(c, "transient"); ok {
		t.Error("zero-TTL entry was cached")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	clock := newFakeClock()
	c, _ := newTestCache(4<<10, clock)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("key-%d", i%16)
				if i%3 == 0 {
					c.put(key, i, 64, time.Hour)
				} else {
					lookup(c, key)
				}
			}
		}(g)
	}
	wg.Wait()
	entries, bytes := c.stats()
	if entries < 0 || bytes < 0 || bytes > 4<<10 {
		t.Errorf("stats after concurrent churn = (%d, %d): accounting drifted", entries, bytes)
	}
}
