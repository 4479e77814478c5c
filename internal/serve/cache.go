package serve

import (
	"container/list"
	"sync"
)

// result is the unit of caching: the marshalled response body (the exact
// bytes every requester receives, which is what makes cached and
// freshly-computed replies bit-identical) plus the attribution payload the
// ledger wants per served estimate. Failed computations are never cached —
// by construction they cannot occur after request validation, so a result
// in the cache is always a success.
type result struct {
	body   []byte
	powerW float64
	// breakdown is nil for sweeps (only estimates carry attribution).
	breakdown map[string]float64
}

// lruCache is a size-bounded LRU of canonical-key -> result, one shard per
// serving unit. The full canonical string is the key and the shard is
// model-scoped, so two distinct computations — even the same activity
// against two models — can never alias. A zero or negative capacity
// disables the cache entirely (Get always misses, Put drops).
type lruCache struct {
	mu    sync.Mutex
	model string // owning unit's entry name, for cache-event metrics
	cap   int
	ll    *list.List // front = most recently used
	m     map[string]*list.Element
}

type lruEntry struct {
	key string
	res result
}

func newLRUCache(model string, capacity int) *lruCache {
	if capacity <= 0 {
		return nil
	}
	return &lruCache{model: model, cap: capacity, ll: list.New(), m: make(map[string]*list.Element, capacity)}
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
		mCacheEvents.With(c.model, "eviction").Inc()
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
