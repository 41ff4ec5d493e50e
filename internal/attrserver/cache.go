package attrserver

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// resultCache is the one table of query results: every key is either
// ready (a cached value on the LRU list, with a TTL checked lazily on
// lookup) or in flight (a computation some query leads, which later
// queries attach to). One map and one mutex cover both states, so a
// lookup that misses and the flight it joins or starts are one atomic
// step. Ready entries are evicted least-recently-used when their bytes
// exceed the budget; in-flight entries cost nothing until filled.
type resultCache struct {
	mu     sync.Mutex
	items  map[string]*cacheEntry
	lru    *list.List // ready entries; front = most recently used
	bytes  int64
	budget int64
	now    func() time.Time
	inst   *Instruments
}

type cacheEntry struct {
	key     string
	val     any
	size    int64
	expires time.Time
	el      *list.Element // position on the LRU list; nil while in flight
	fl      *flight       // the computation filling the entry; nil once ready
}

// flight is one computation in progress. Its waiters read val and err
// once done is closed.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

func newResultCache(budget int64, now func() time.Time, inst *Instruments) *resultCache {
	return &resultCache{
		items:  map[string]*cacheEntry{},
		lru:    list.New(),
		budget: budget,
		now:    now,
		inst:   inst,
	}
}

// acquire looks key up for a query. A live ready entry is promoted and its
// value returned with a nil flight (a hit). A key already in flight
// returns that flight (a miss that coalesced). Anything else registers a
// new flight and reports lead, and the caller must fill it. An expired
// entry is dropped and counted as an eviction before the miss.
func (c *resultCache) acquire(key string) (val any, fl *flight, lead bool) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.items[key]
	switch {
	case ok && ent.fl != nil:
		c.inst.CacheMisses.Inc()
		c.inst.Coalesced.Inc()
		return nil, ent.fl, false
	case ok && ent.expires.After(now):
		c.lru.MoveToFront(ent.el)
		c.inst.CacheHits.Inc()
		return ent.val, nil, false
	case ok:
		c.removeLocked(ent)
		c.inst.CacheEvictions.Inc()
	}
	c.inst.CacheMisses.Inc()
	fl = &flight{done: make(chan struct{})}
	c.items[key] = &cacheEntry{key: key, fl: fl}
	return nil, fl, true
}

// fill finishes the flight acquire handed a leader and releases its
// waiters. A result with a positive TTL that fits the budget becomes the
// ready entry; anything else, errors included, removes the entry so the
// next query computes afresh. A flight whose entry put has since replaced
// only answers its waiters.
func (c *resultCache) fill(key string, fl *flight, val any, size int64, ttl time.Duration, err error) {
	fl.val, fl.err = val, err
	c.mu.Lock()
	evicted := 0
	if ent, ok := c.items[key]; ok && ent.fl == fl {
		if err == nil && ttl > 0 && size <= c.budget {
			ent.val, ent.size, ent.expires, ent.fl = val, size, c.now().Add(ttl), nil
			evicted = c.readyLocked(ent)
		} else {
			delete(c.items, key)
		}
	}
	c.mu.Unlock()
	c.inst.CacheEvictions.Add(float64(evicted))
	close(fl.done)
}

// peek returns the live cached value for key without counting a hit or a
// miss and without promoting or expiring the entry.
func (c *resultCache) peek(key string) (any, bool) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.items[key]; ok && ent.fl == nil && ent.expires.After(now) {
		return ent.val, true
	}
	return nil, false
}

// put installs a ready value with the given footprint and TTL, replacing
// whatever the key held; a flight it replaces still answers its own
// waiters but no longer writes here. Entries larger than the whole budget,
// and non-positive TTLs, are not cached.
func (c *resultCache) put(key string, val any, size int64, ttl time.Duration) {
	if ttl <= 0 || size > c.budget {
		return
	}
	ent := &cacheEntry{key: key, val: val, size: size, expires: c.now().Add(ttl)}
	c.mu.Lock()
	if old, ok := c.items[key]; ok {
		c.removeLocked(old)
	}
	c.items[key] = ent
	evicted := c.readyLocked(ent)
	c.mu.Unlock()
	c.inst.CacheEvictions.Add(float64(evicted))
}

// readyLocked puts ent (already in the map) at the LRU front and evicts
// from the tail until the bytes fit the budget, returning the count.
func (c *resultCache) readyLocked(ent *cacheEntry) (evicted int) {
	ent.el = c.lru.PushFront(ent)
	c.bytes += ent.size
	for c.bytes > c.budget {
		back := c.lru.Back()
		if back == nil || back == ent.el {
			break
		}
		c.removeLocked(back.Value.(*cacheEntry))
		evicted++
	}
	return evicted
}

// removeLocked drops an entry, ready or in flight, from the table.
func (c *resultCache) removeLocked(ent *cacheEntry) {
	delete(c.items, ent.key)
	if ent.el != nil {
		c.lru.Remove(ent.el)
		c.bytes -= ent.size
	}
}

// stats reports the ready entry and byte counts.
func (c *resultCache) stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.bytes
}

// wait blocks until the flight is done or ctx ends; the computation
// itself is not bounded by ctx.
func (fl *flight) wait(ctx context.Context) (any, error) {
	select {
	case <-fl.done:
		return fl.val, fl.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
