package plancache

import (
	"fmt"
	"sync"
	"testing"
)

// entries counts the cache's entries through Range.
func entries[V any](c *Cache[V]) int {
	n := 0
	c.Range(func(string, V) bool { n++; return true })
	return n
}

// TestLRUOrder uses a single shard for exact-LRU determinism.
func TestLRUOrder(t *testing.T) {
	c := NewSharded[int](3, 1)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	if _, ok := c.Get("a"); !ok { // a becomes MRU
		t.Fatal("a missing")
	}
	c.Put("d", 4) // evicts b (LRU)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should be resident", k)
		}
	}
	if entries(c) != 3 {
		t.Errorf("%d entries, want 3", entries(c))
	}
}

func TestPutReplaces(t *testing.T) {
	c := NewSharded[string](2, 1)
	c.Put("k", "v1")
	c.Put("k", "v2")
	if v, _ := c.Get("k"); v != "v2" {
		t.Errorf("Get = %q, want v2", v)
	}
	if entries(c) != 1 {
		t.Errorf("replace grew the cache: %d entries", entries(c))
	}
}

// TestNilCacheAlwaysMisses: capacity ≤ 0 yields the nil always-miss
// cache, every method a safe no-op — the "cache disabled" path.
func TestNilCacheAlwaysMisses(t *testing.T) {
	c := New[int](0)
	if c != nil {
		t.Fatal("capacity 0 should return nil")
	}
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Error("nil cache must always miss")
	}
	if entries(c) != 0 {
		t.Error("nil cache must hold no entries")
	}
}

// TestCapacityAcrossShards: total capacity is respected regardless of key
// distribution — inserting far more keys than capacity never exceeds it.
func TestCapacityAcrossShards(t *testing.T) {
	const capTotal = 20
	c := New[int](capTotal)
	for i := 0; i < 500; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	if got := entries(c); got > capTotal {
		t.Errorf("%d entries exceed capacity %d", got, capTotal)
	}
	if got := entries(c); got == 0 {
		t.Error("cache empty after inserts")
	}
}

// TestTinyCapacityShardClamp: shard count clamps so every shard holds at
// least one entry.
func TestTinyCapacityShardClamp(t *testing.T) {
	c := New[int](3)
	for i := 0; i < 50; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if got := entries(c); got == 0 || got > 3 {
		t.Errorf("%d entries, want 1 to 3", got)
	}
}

// TestConcurrentAccess hammers the stripes from many goroutines; run
// under -race in CI. Hot keys must stay readable throughout.
func TestConcurrentAccess(t *testing.T) {
	c := New[int](64)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("key-%d", i%100)
				if i%3 == 0 {
					c.Put(k, g*10000+i)
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if entries(c) > 64 {
		t.Errorf("capacity exceeded under concurrency: %d", entries(c))
	}
}

// TestGetHitNoAllocs is the plan-cache half of the hit-path allocation
// audit: serving a hot template from the cache must allocate nothing —
// the lookup is maphash + map probe + list splice, all in place. The ELP
// runtime's result cache is this LRU too, so an answer's lookup is as free.
func TestGetHitNoAllocs(t *testing.T) {
	c := New[int](64)
	for i := 0; i < 32; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	hot := fmt.Sprintf("k%d", 7)
	// Shards are picked by a per-cache random seed, so k7's shard may have
	// overflowed during the fill; re-putting it last makes it resident.
	c.Put(hot, 7)
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := c.Get(hot); !ok {
			t.Fatal("hot key missed")
		}
	})
	if allocs != 0 {
		t.Errorf("Get hit allocates %.1f objects/op, want 0", allocs)
	}
}

// TestMissNoAllocs: a miss is just as free (no entry is created).
func TestMissNoAllocs(t *testing.T) {
	c := New[int](8)
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := c.Get("never-inserted"); ok {
			t.Fatal("phantom hit")
		}
	})
	if allocs != 0 {
		t.Errorf("Get miss allocates %.1f objects/op, want 0", allocs)
	}
}
