package serve

import (
	"container/list"
	"sync"

	"accelwattch/internal/attr"
	"accelwattch/internal/obs"
)

// result is the unit of caching: the encoded response body (the exact
// bytes every requester receives, which is what makes cached and
// freshly-computed replies bit-identical) plus the attribution payload of
// every served estimate, computed once by the miss: the breakdown its
// ledger event carries and the power-domain split it is charged by. Failed
// computations are never cached, so a result in the cache is always a
// success. Validation leaves one way
// to fail: counts large enough, or cycles small enough, to make the watts
// infinite or NaN, which JSON cannot carry; the encoder then fails with
// json.Marshal's text ("json: unsupported value: +Inf") and the request
// answers 400.
type result struct {
	body   []byte
	powerW float64
	// breakdown is nil for sweeps (only estimates carry attribution).
	breakdown map[string]float64
	split     attr.Sample
}

// lruCache is a size-bounded LRU of canonical-key -> result, one shard per
// serving unit. The full canonical string is the key and the shard is
// model-scoped, so two distinct computations — even the same activity
// against two models — can never alias. A zero or negative capacity
// disables the cache entirely (Get always misses, Put drops).
type lruCache struct {
	mu        sync.Mutex
	evictions *obs.Counter // the owning unit's eviction series
	cap       int
	ll        *list.List // front = most recently used
	m         map[string]*list.Element
}

type lruEntry struct {
	key string
	res result
}

func newLRUCache(capacity int, evictions *obs.Counter) *lruCache {
	if capacity <= 0 {
		return nil
	}
	return &lruCache{evictions: evictions, cap: capacity, ll: list.New(), m: make(map[string]*list.Element, capacity)}
}

// Get returns the cached result for key, refreshing its recency.
func (c *lruCache) Get(key string) (result, bool) {
	if c == nil {
		return result{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return result{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

// Put inserts or refreshes a result, evicting the least recently used
// entry beyond capacity.
func (c *lruCache) Put(key string, res result) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*lruEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry).key)
		c.evictions.Inc()
	}
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
