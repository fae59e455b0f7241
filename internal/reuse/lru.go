package reuse

import (
	"container/list"
	"sync"
)

// LRU is a bounded map with least-recently-used eviction — the one cache
// type of the module. The serving stack's Cached tier runs two (content
// key -> stored result, and request spec -> content key, the shortcut
// that lets a repeat Place skip the backend); backend.Local runs one
// (net term -> resolved topology), backend.Predictive one (net term ->
// what a prediction needs of it) and routing.SolverCache one (graph
// fingerprint -> PathCache). All must stay bounded on a long-running
// daemon: request coordinates and net terms are client-supplied, so an
// unbounded index would grow monotonically under a varied workload.
type LRU[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List          // front = most recently used; guarded by mu
	m   map[K]*list.Element // guarded by mu
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU returns an empty LRU holding at most capacity entries.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{cap: capacity, ll: list.New(), m: make(map[K]*list.Element)}
}

// Get returns the cached value for key, promoting it to most recent.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*lruEntry[K, V]).val, true
}

// Add inserts or refreshes an entry, evicting the least recently used
// beyond capacity.
func (c *LRU[K, V]) Add(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		e.Value.(*lruEntry[K, V]).val = val
		c.ll.MoveToFront(e)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	c.evictLocked()
}

// evictLocked drops least recently used entries beyond capacity.
func (c *LRU[K, V]) evictLocked() {
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*lruEntry[K, V]).key)
	}
}

// GetOrAdd returns the value held for key, promoting it, or inserts val
// and returns it when none is: callers that raced to compute a value all
// leave with the one that was stored first.
func (c *LRU[K, V]) GetOrAdd(key K, val V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		c.ll.MoveToFront(e)
		return e.Value.(*lruEntry[K, V]).val
	}
	c.m[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	c.evictLocked()
	return val
}

// Len reports the current entry count.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
