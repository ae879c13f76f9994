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

// lru is a mutex-guarded LRU map bounded by weight, not entry count.
// Each entry weighs the bytes of text it stands for (the layer decides:
// a parse weighs its source, a design the sum of its sources, a result
// its printed output) plus entryOverhead, and the least recently used
// entries are evicted while the total exceeds the budget. The newest
// entry is always kept, even when it alone is over budget. Weighting by
// source bytes is what bounds memory: a parsed and elaborated source
// retains tens of times its own size, and one 1024-vector bench is
// ~90 KB of source where a typical candidate is a few hundred bytes.
// Values are immutable artifacts (parsed files, compiled designs,
// simulation results), so a hit hands back the shared pointer; eviction
// only drops the cache's own reference. getOrCompute adds per-key
// in-flight deduplication (singleflight): concurrent misses on the same
// key block on one leader's computation instead of duplicating it —
// under RunMany with duplicate candidates the seed design recomputed
// identical simulations whenever duplicates landed in the same
// scheduling window.
//
// The traffic counters are atomics deliberately kept outside mu: snapshot
// never takes the map lock, so an observability poller (the edaserver
// /v1/metrics scrape) can hammer Stats() without contending with
// worker-pool cache probes. A snapshot is therefore not one consistent
// cut across counters — hits observed mid-probe may be a step ahead of
// len — which is fine for monitoring.
type lru struct {
	mu     sync.Mutex
	budget int64 // bound on the summed entry weights
	weight int64 // summed entry weights
	m      map[string]*list.Element
	ll     *list.List // front = most recently used

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

// entry is one cached key/value pair and its weight.
type entry struct {
	key    string
	val    any
	weight int64
}

// entryOverhead is added to every entry's weight: the map slot, list
// element and result structs an entry costs regardless of its size.
const entryOverhead = 256

func newLRU(budget int64) *lru {
	return &lru{
		budget:  budget,
		m:       make(map[string]*list.Element),
		ll:      list.New(),
		flights: make(map[string]*flight),
	}
}

// getOrCompute returns the cached value for key, computing it (and its
// weight) on a miss. Concurrent callers missing the same key are
// deduplicated: exactly one runs compute, the rest wait and share the
// result.
func (c *lru) getOrCompute(key string, compute func() (any, int)) any {
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
		var weight int
		f.val, weight = compute()
		c.add(key, f.val, weight)
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

// add inserts (or refreshes) a value of the given weight, then evicts
// least recently used entries while the cache is over budget, keeping
// the one just added.
func (c *lru) add(key string, val any, weight int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := int64(weight) + entryOverhead
	if el, ok := c.m[key]; ok {
		e := el.Value.(*entry)
		c.weight += w - e.weight
		e.val, e.weight = val, w
		c.ll.MoveToFront(el)
	} else {
		c.m[key] = c.ll.PushFront(&entry{key: key, val: val, weight: w})
		c.weight += w
		c.length.Add(1)
	}
	for c.weight > c.budget && c.ll.Len() > 1 {
		oldest := c.ll.Remove(c.ll.Back()).(*entry)
		delete(c.m, oldest.key)
		c.weight -= oldest.weight
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
	c.weight = 0
	c.length.Store(0)
}
