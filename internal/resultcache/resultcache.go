// Package resultcache holds the singleflight group behind BlinkDB-Go's
// cross-query RESULT cache: Flights collapses concurrent misses of one
// fully-bound query key (template key + canonical parameter encoding,
// sqlparser.Normalize + ParamsKey) into a single execution.
//
// The answers themselves live in a plancache.Cache owned by the ELP
// runtime, which also owns the staleness contract: the answer cache and
// its Flights belong to one catalog version, and a request that finds the
// version moved starts an empty pair, so no entry or flight is ever
// checked. The one catalog version moves on every change to what any
// answer could have been computed from — RefreshSamples, a Maintain
// rebuild/drop, a table (re)load on any table (a loaded storage.Table
// never changes) — so an entry is served until it is evicted or the
// catalog changes, and no longer.
package resultcache

import (
	"errors"
	"sync"
	"sync/atomic"
)

// errPanicked is returned to singleflight waiters when the in-flight
// leader panicked before producing a value.
var errPanicked = errors.New("resultcache: in-flight computation panicked")

// flight is one in-progress computation shared by concurrent callers.
type flight[V any] struct {
	done chan struct{}
	// waiters counts callers blocked on done (cold path only; the tests
	// use it to build deterministic stampedes).
	waiters atomic.Int32
	val     V
	err     error
}

// Flights collapses concurrent computations of one key: the first caller
// (the leader) runs the function; callers arriving while it is in flight
// block and share the leader's outcome instead of re-executing. The zero
// value is ready to use.
//
// Unlike a cache, Flights retains nothing after the leader returns — a
// caller arriving later starts a fresh flight. The ELP runtime pairs it
// with its answer cache: N concurrent misses of one cold key run the
// chosen view scan once, then the cached entry serves everyone else.
type Flights[V any] struct {
	mu sync.Mutex
	m  map[string]*flight[V]
}

// Do returns the result of fn for key, executing it at most once across
// concurrent callers. shared is false for the leader that executed fn and
// true for callers that received the leader's outcome. Errors are shared
// like values and cached by nobody. If the leader panics, the panic
// propagates on the leader and waiters receive a non-nil error.
func (f *Flights[V]) Do(key string, fn func() (V, error)) (v V, shared bool, err error) {
	f.mu.Lock()
	if f.m == nil {
		f.m = make(map[string]*flight[V])
	}
	if fl, ok := f.m[key]; ok {
		fl.waiters.Add(1)
		f.mu.Unlock()
		<-fl.done
		return fl.val, true, fl.err
	}
	fl := &flight[V]{done: make(chan struct{})}
	f.m[key] = fl
	f.mu.Unlock()

	completed := false
	defer func() {
		if !completed {
			fl.err = errPanicked // leader panicked: unblock waiters with an error
		}
		f.mu.Lock()
		delete(f.m, key)
		f.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.err = fn()
	completed = true
	return fl.val, false, fl.err
}
