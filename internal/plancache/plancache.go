// Package plancache provides the sharded LRU behind BlinkDB-Go's two
// reuse layers: a concurrency-safe map from string keys to cached state.
// The ELP runtime keeps one from query-template keys (sqlparser.Normalize)
// to prepared-query state (compiled plan, probe results, Error-Latency
// Profile fit), and one from fully-bound query keys (template key +
// parameter vector) to completed answers.
//
// The cache is mutex-striped: keys hash to one of up to 16 shards, each
// an independently locked exact-LRU list, so concurrent lookups of
// different hot templates never contend on one lock. Capacity is divided
// evenly across shards, which makes global eviction approximate — a
// burst of templates hashing to one shard can evict earlier than a
// global LRU would — but per-shard recency is exact, which is what a
// template-heavy serving workload needs: the hot templates stay resident
// regardless of cold-template churn elsewhere.
//
// The cache stores values of any type and never inspects them; staleness
// (e.g. a sample rebuild) is the caller's concern — the ELP runtime keeps
// both caches of one catalog version together and, once the version
// moves, replaces them with empty ones instead of checking any entry.
package plancache

import (
	"container/list"
	"hash/maphash"
	"sync"
)

// maxShards caps the stripe count; fewer are used for tiny capacities so
// every shard can hold at least one entry.
const maxShards = 16

// Cache is a sharded, mutex-striped LRU keyed by strings.
// The zero value is not usable; call New. A nil *Cache is a valid
// always-miss cache, so callers can treat "cache disabled" uniformly.
type Cache[V any] struct {
	seed   maphash.Seed
	shards []shard[V]
}

type shard[V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	tab map[string]*list.Element
}

type entry[V any] struct {
	key string
	val V
}

// New creates a cache holding up to capacity entries in total, striped
// over min(capacity, 16) shards. Capacity ≤ 0 returns nil — the
// always-miss cache.
func New[V any](capacity int) *Cache[V] {
	return NewSharded[V](capacity, maxShards)
}

// NewSharded is New with an explicit stripe count (clamped to
// [1, capacity] so no shard has zero capacity). Exact single-LRU
// semantics are available with shards = 1.
func NewSharded[V any](capacity, shards int) *Cache[V] {
	if capacity <= 0 {
		return nil
	}
	if shards > capacity {
		shards = capacity
	}
	if shards < 1 {
		shards = 1
	}
	c := &Cache[V]{seed: maphash.MakeSeed(), shards: make([]shard[V], shards)}
	per := capacity / shards
	extra := capacity % shards
	for i := range c.shards {
		n := per
		if i < extra {
			n++
		}
		c.shards[i] = shard[V]{cap: n, ll: list.New(), tab: make(map[string]*list.Element)}
	}
	return c
}

func (c *Cache[V]) shardOf(key string) *shard[V] {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	h := maphash.String(c.seed, key)
	return &c.shards[h%uint64(len(c.shards))]
}

// Get returns the cached value and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.tab[key]
	if !ok {
		return zero, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put inserts or replaces the value for key, evicting the shard's least
// recently used entry when over capacity.
func (c *Cache[V]) Put(key string, v V) {
	if c == nil {
		return
	}
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.tab[key]; ok {
		el.Value.(*entry[V]).val = v
		s.ll.MoveToFront(el)
		return
	}
	s.tab[key] = s.ll.PushFront(&entry[V]{key: key, val: v})
	for s.ll.Len() > s.cap {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.tab, back.Value.(*entry[V]).key)
	}
}

// Delete removes the key if present.
func (c *Cache[V]) Delete(key string) {
	if c == nil {
		return
	}
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.tab[key]; ok {
		s.ll.Remove(el)
		delete(s.tab, key)
	}
}

// Range calls fn for every cached entry without touching recency order
// (unlike Get, so a full export does not reshuffle the LRU). Iteration
// stops early when fn returns false. Each shard is visited under its own
// lock; fn must not call back into the cache. Entries added or removed
// concurrently may or may not be seen — Range is a snapshot-quality
// iterator for warmup export, not a consistency point.
func (c *Cache[V]) Range(fn func(key string, v V) bool) {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry[V])
			if !fn(e.key, e.val) {
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
	}
}

// Len returns the current entry count across all shards.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}
