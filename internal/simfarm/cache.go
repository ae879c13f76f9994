package simfarm

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of one cache's traffic counters.
type Stats struct {
	Hits, Misses, Evictions uint64
	// Computes counts value constructions performed through getOrCompute.
	// With in-flight deduplication, N concurrent misses on one key still
	// yield exactly one compute; the N-1 followers block on the leader.
	Computes uint64
	Len      int
}

// lru is a mutex-guarded, capacity-bounded LRU map. Values are immutable
// artifacts (parsed files, compiled designs, simulation results), so a hit
// hands back the shared pointer; eviction only drops the cache's own
// reference. getOrCompute adds per-key in-flight deduplication
// (singleflight): concurrent misses on the same key block on one leader's
// computation instead of duplicating it — under RunMany with duplicate
// candidates the seed design recomputed identical simulations whenever
// duplicates landed in the same scheduling window.
//
// The traffic counters are atomics deliberately kept outside mu: snapshot
// never takes the map lock, so an observability poller (the edaserver
// /v1/metrics scrape) can hammer Stats() without contending with
// worker-pool cache probes. A snapshot is therefore not one consistent
// cut across counters — hits observed mid-probe may be a step ahead of
// len — which is fine for monitoring.
type lru struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	ll  *list.List // front = most recently used

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	computes  atomic.Uint64
	length    atomic.Int64

	fmu     sync.Mutex
	flights map[string]*flight
}

// flight is one in-progress computation that concurrent misses join.
type flight struct {
	done chan struct{}
	val  any
	ok   bool // val is valid; false when the leader panicked out of compute
}

// entry is one cached key/value pair.
type entry struct {
	key string
	val any
}

func newLRU(capacity int) *lru {
	if capacity <= 0 {
		capacity = 1
	}
	return &lru{
		cap:     capacity,
		m:       make(map[string]*list.Element),
		ll:      list.New(),
		flights: make(map[string]*flight),
	}
}

// getOrCompute returns the cached value for key, computing it on a miss.
// Concurrent callers missing the same key are deduplicated: exactly one
// runs compute, the rest wait and share the result.
func (c *lru) getOrCompute(key string, compute func() any) any {
	if v, ok := c.get(key); ok {
		return v
	}
	c.fmu.Lock()
	if f, ok := c.flights[key]; ok {
		c.fmu.Unlock()
		<-f.done
		if f.ok {
			return f.val
		}
		// The leader panicked out of compute; its flight is gone, so
		// retry from scratch rather than hand back a nil value.
		return c.getOrCompute(key, compute)
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.fmu.Unlock()

	// Unwind in a defer so a panicking compute still releases followers
	// blocked on f.done and clears the flight entry; the panic itself
	// propagates to this leader's caller.
	defer func() {
		c.fmu.Lock()
		delete(c.flights, key)
		c.fmu.Unlock()
		close(f.done)
	}()

	if v, ok := c.peek(key); ok {
		// A previous leader finished between our miss and our flight
		// registration; serve its value rather than recomputing.
		f.val = v
	} else {
		f.val = compute()
		c.add(key, f.val)
		c.computes.Add(1)
	}
	f.ok = true
	return f.val
}

// peek returns the cached value without touching LRU order or counters.
func (c *lru) peek(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*entry).val, true
}

// get returns the cached value and marks it most recently used.
func (c *lru) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// add inserts (or refreshes) a value, evicting the least recently used
// entry when the cache is over capacity.
func (c *lru) add(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&entry{key: key, val: val})
	c.length.Add(1)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*entry).key)
		c.evictions.Add(1)
		c.length.Add(-1)
	}
}

// snapshot returns the current counters without taking the map lock; see
// the consistency note on lru.
func (c *lru) snapshot() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Computes:  c.computes.Load(),
		Len:       int(c.length.Load()),
	}
}

// purge drops every entry but keeps the counters.
func (c *lru) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[string]*list.Element)
	c.ll.Init()
	c.length.Store(0)
}
