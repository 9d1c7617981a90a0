package resultcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blinkdb/internal/plancache"
)

// answers is the result cache as the ELP runtime assembles it: a plancache
// LRU of answers, consulted first, with Flights in front of the execution
// a miss falls through to. The flight's leader fills the LRU.
type answers struct {
	lru     *plancache.Cache[*int]
	flights Flights[*int]
}

// lookup serves key from the LRU, or runs exec under the key's flight
// and caches what it returns. hit reports whether the LRU answered.
func (a *answers) lookup(key string, exec func() (*int, error)) (v *int, hit bool, err error) {
	if v, ok := a.lru.Get(key); ok {
		return v, true, nil
	}
	v, _, err = a.flights.Do(key, func() (*int, error) {
		v, err := exec()
		if err == nil {
			a.lru.Put(key, v)
		}
		return v, err
	})
	return v, false, err
}

// counted returns an exec that yields a fresh answer per call and counts
// its calls.
func counted(execs *int) func() (*int, error) {
	return func() (*int, error) {
		*execs++
		v := *execs
		return &v, nil
	}
}

func TestCacheBasic(t *testing.T) {
	a := &answers{lru: plancache.New[*int](4)}
	execs := 0
	first, hit, err := a.lookup("a", counted(&execs))
	if err != nil || hit || *first != 1 {
		t.Fatalf("cold lookup = %d, hit %v, err %v", *first, hit, err)
	}
	if v, hit, _ := a.lookup("a", counted(&execs)); !hit || v != first || execs != 1 {
		t.Fatalf("warm lookup = %d, hit %v after %d executions", *v, hit, execs)
	}
	replaced := 7
	a.lru.Put("a", &replaced) // replace
	if v, hit, _ := a.lookup("a", counted(&execs)); !hit || v != &replaced {
		t.Fatalf("replace failed: %d, hit %v", *v, hit)
	}
	a.lru = plancache.New[*int](4) // a new generation: every answer forgotten
	if v, hit, _ := a.lookup("a", counted(&execs)); hit || *v != 2 {
		t.Fatalf("forgotten key still present: %d, hit %v", *v, hit)
	}
}

// TestCacheNilIsAlwaysMiss: a capacity ≤ 0 result cache is the nil LRU,
// the "result cache disabled" state — every lookup executes.
func TestCacheNilIsAlwaysMiss(t *testing.T) {
	if plancache.New[*int](0) != nil || plancache.New[*int](-1) != nil {
		t.Fatal("capacity ≤ 0 must return the nil always-miss cache")
	}
	a := &answers{}
	execs := 0
	for i := 0; i < 3; i++ {
		if _, hit, err := a.lookup("k", counted(&execs)); hit || err != nil {
			t.Fatalf("nil cache hit %v, err %v", hit, err)
		}
	}
	if execs != 3 {
		t.Fatalf("execs = %d, want 3", execs)
	}
	if entries(a.lru) != 0 {
		t.Fatal("nil cache must be empty")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// plancache stripes min(cap, 16) shards; with cap 2 each shard holds 1.
	a := &answers{lru: plancache.New[*int](2)}
	execs := 0
	for i := 0; i < 64; i++ {
		a.lookup(fmt.Sprintf("k%d", i), counted(&execs))
	}
	if entries(a.lru) > 2 {
		t.Fatalf("len = %d, want ≤ 2", entries(a.lru))
	}
}

// TestCacheHitNoAllocs is the result-cache half of the hit-path
// allocation audit: a lookup the LRU answers allocates nothing (what the
// engine builds from a hit is measured separately — the cache itself must
// be free).
func TestCacheHitNoAllocs(t *testing.T) {
	a := &answers{lru: plancache.New[*int](64)}
	execs := 0
	exec := counted(&execs)
	a.lookup("hot", exec)
	allocs := testing.AllocsPerRun(200, func() {
		if _, hit, _ := a.lookup("hot", exec); !hit {
			t.Fatal("hot key missed")
		}
	})
	if allocs != 0 {
		t.Errorf("lookup hit allocates %.1f objects/op, want 0", allocs)
	}
}

// waitersOf reports how many callers are blocked sharing the in-flight
// computation for key (-1 when no flight is registered). Test-side
// observation hook for building deterministic stampedes.
func (f *Flights[V]) waitersOf(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fl, ok := f.m[key]; ok {
		return int(fl.waiters.Load())
	}
	return -1
}

// awaitWaiters blocks until n callers are waiting on key's flight.
func awaitWaiters[V any](t *testing.T, f *Flights[V], key string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.waitersOf(key) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters joined %q after 10s, want %d", f.waitersOf(key), key, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestFlightsSingleflight pins the collapse property deterministically:
// the leader blocks inside fn until every follower is OBSERVED waiting
// on the flight (waiter counter), so all N callers must share ONE
// execution — no scheduler luck involved.
func TestFlightsSingleflight(t *testing.T) {
	var f Flights[int]
	const followers = 8
	var execs atomic.Int32
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]int, followers+1)
	shareds := make([]bool, followers+1)
	wg.Add(1)
	go func() { // leader
		defer wg.Done()
		v, shared, err := f.Do("k", func() (int, error) {
			execs.Add(1)
			<-release
			return 99, nil
		})
		if err != nil {
			t.Error(err)
		}
		results[0], shareds[0] = v, shared
	}()
	// The leader's flight is registered before fn runs, and fn blocks on
	// release; wait for it, then launch the followers.
	awaitWaiters(t, &f, "k", 0)
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := f.Do("k", func() (int, error) {
				execs.Add(1)
				return -1, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], shareds[i] = v, shared
		}(i)
	}
	// Release the leader only once every follower is provably blocked on
	// the flight.
	awaitWaiters(t, &f, "k", followers)
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	sharedCount := 0
	for i, v := range results {
		if v != 99 {
			t.Fatalf("caller %d got %d, want 99", i, v)
		}
		if shareds[i] {
			sharedCount++
		}
	}
	if sharedCount != followers {
		t.Fatalf("%d callers shared, want %d (exactly one leader)", sharedCount, followers)
	}
}

// TestFlightsSequentialCallersEachExecute: Flights is not a cache — once
// a flight lands, the next caller starts a fresh one.
func TestFlightsSequentialCallersEachExecute(t *testing.T) {
	var f Flights[int]
	execs := 0
	for i := 0; i < 3; i++ {
		v, shared, err := f.Do("k", func() (int, error) {
			execs++
			return execs, nil
		})
		if err != nil || shared || v != i+1 {
			t.Fatalf("call %d: v=%d shared=%v err=%v", i, v, shared, err)
		}
	}
	if execs != 3 {
		t.Fatalf("execs = %d, want 3", execs)
	}
}

// TestFlightsErrorShared: an error from the leader is delivered to every
// waiter; nothing is retained afterwards.
func TestFlightsErrorShared(t *testing.T) {
	var f Flights[int]
	boom := errors.New("boom")
	release := make(chan struct{})
	var wg sync.WaitGroup
	errsc := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := f.Do("k", func() (int, error) {
			<-release
			return 0, boom
		})
		errsc <- err
	}()
	awaitWaiters(t, &f, "k", 0) // flight registered
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := f.Do("k", func() (int, error) { return 0, errors.New("second flight") })
			errsc <- err
		}()
	}
	awaitWaiters(t, &f, "k", 3) // all three provably share the flight
	close(release)
	wg.Wait()
	close(errsc)
	for err := range errsc {
		if err != boom {
			t.Fatalf("caller got err=%v, want shared %v", err, boom)
		}
	}
	if f.waitersOf("k") != -1 {
		t.Error("flight retained after completion")
	}
}

// TestFlightsPanicUnblocksWaiters: a panicking leader must not leave
// waiters hanging; they receive an error and the panic propagates.
func TestFlightsPanicUnblocksWaiters(t *testing.T) {
	var f Flights[int]
	waiterErr := make(chan error, 1)
	go func() {
		awaitWaiters(t, &f, "k", 0) // leader's flight registered
		_, _, err := f.Do("k", func() (int, error) { return 1, nil })
		waiterErr <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		f.Do("k", func() (int, error) {
			awaitWaiters(t, &f, "k", 1) // panic only once the waiter shares the flight
			panic("kaboom")
		})
	}()
	select {
	case err := <-waiterErr:
		if err != errPanicked {
			t.Errorf("waiter got err=%v, want errPanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still blocked after leader panicked")
	}
}

// TestFlightsConcurrentDistinctKeys runs many keys concurrently under
// -race: flights of different keys never serialize each other's fn.
func TestFlightsConcurrentDistinctKeys(t *testing.T) {
	var f Flights[int]
	var wg sync.WaitGroup
	var total atomic.Int32
	for k := 0; k < 8; k++ {
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				v, _, err := f.Do(fmt.Sprintf("k%d", k), func() (int, error) {
					total.Add(1)
					return k, nil
				})
				if err != nil || v != k {
					t.Errorf("key %d: v=%d err=%v", k, v, err)
				}
			}(k)
		}
	}
	wg.Wait()
	if got := total.Load(); got < 8 || got > 32 {
		t.Fatalf("executions = %d, want within [8, 32]", got)
	}
}

// entries counts a cache's entries.
func entries[V any](c *plancache.Cache[V]) int {
	n := 0
	c.Range(func(string, V) bool { n++; return true })
	return n
}
