package elp

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blinkdb/internal/sample"
	"blinkdb/internal/storage"
)

// TestHistoryNeverStale checks served answers against the recorded history
// of the catalog while refreshes change what the samples hold. Eight
// goroutines replay four templates, each with fixed constants, through a
// plan-and-result-cache runtime and a plan-cache-only runtime over one
// catalog, while the test installs six re-draws of the city family, each
// from a new seed. Every answer, cache markers stripped, must equal a
// cache-off runtime's answer on some catalog state that was current
// between the version read before the query and the version read after
// it. Constants are fixed because a plan-cache hit with new constants
// keeps the first request's decision: only a replay with the same
// constants has a single cache-off answer per state.
func TestHistoryNeverStale(t *testing.T) {
	f := newFixture(t, 20000, Options{PlanCacheSize: 64, ResultCacheSize: 64})
	runtimes := []*Runtime{f.rt, New(f.cat, f.clus, Options{PlanCacheSize: 64})}
	ref := New(f.cat, f.clus, Options{})
	srcs := cacheQueries[:4]

	// states[k] is the city family of catalog state k: the fixture's,
	// then six re-draws.
	entry, err := f.cat.Lookup("sessions")
	if err != nil {
		t.Fatal(err)
	}
	var states []*sample.Family
	for _, fam := range entry.Families {
		if fam.Phi.Key() == "city" {
			states = append(states, fam)
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		fam, err := sample.Build(f.tab, states[0].Phi, states[0].Caps,
			sample.BuildConfig{Seed: 100 + seed, Nodes: 100, Place: storage.InMemory, RowsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, fam)
	}
	// want[k][j] is the cache-off answer to srcs[j] on state k.
	want := make([][]*Response, len(states))
	for k, fam := range states {
		if err := f.cat.AddFamily("sessions", fam); err != nil {
			t.Fatal(err)
		}
		for _, src := range srcs {
			resp, err := answer(ref, parse(t, src))
			if err != nil {
				t.Fatal(err)
			}
			want[k] = append(want[k], resp)
		}
	}
	last := len(states) - 1
	if reflect.DeepEqual(want[0], want[last]) {
		t.Fatal("no answer differs between the first state and the last: the history cannot show a stale answer")
	}
	if err := f.cat.AddFamily("sessions", states[0]); err != nil {
		t.Fatal(err)
	}
	// Only the installer below mutates the catalog from here: state k is
	// current from version base+k until base+k+1.
	base := f.cat.Version()
	stateOf := func(v uint64) int { return min(int(v-base), last) }

	const goroutines, minAnswers, perState = 8, 12, 12
	var answered atomic.Int64
	installed, queried := make(chan struct{}), make(chan struct{})
	errs := make(chan error, goroutines+1)
	go func() { // the installer: the next re-draw every perState answers
		defer close(installed)
		for k := 1; k <= last; k++ {
			for answered.Load() < int64(k*perState) {
				select {
				case <-queried:
					return
				case <-time.After(time.Millisecond):
				}
			}
			if err := f.cat.AddFamily("sessions", states[k]); err != nil {
				errs <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i >= minAnswers {
					select {
					case <-installed:
						return // a query ran after the last install, too
					default:
					}
				}
				j, rt := (g+i)%len(srcs), runtimes[(g+i/len(srcs))%len(runtimes)]
				before := f.cat.Version()
				resp, err := answer(rt, parse(t, srcs[j]))
				after := f.cat.Version()
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				got, ok := stripAll(resp), false
				for k := stateOf(before); k <= stateOf(after) && !ok; k++ {
					ok = reflect.DeepEqual(want[k][j], got)
				}
				if !ok {
					errs <- fmt.Errorf("goroutine %d: %q (%s/%s) answered between versions %d and %d with no cache-off answer of states %d..%d",
						g, srcs[j], resp.Cache, resp.ResultCache, before, after, stateOf(before), stateOf(after))
					return
				}
				answered.Add(1)
			}
		}(g)
	}
	wg.Wait()
	close(queried)
	<-installed
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if v := f.cat.Version(); stateOf(v) != last && !t.Failed() {
		t.Errorf("the installer stopped at state %d of %d", stateOf(v), last)
	}
}
