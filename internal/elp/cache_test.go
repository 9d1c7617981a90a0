package elp

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"blinkdb/internal/plancache"
	"blinkdb/internal/sample"
	"blinkdb/internal/storage"
)

// cacheQueries exercises every planning path through the cache: probed
// (no covering family), covering, uniform, time-bounded, disjunctive,
// unbounded-exact and unreachable-bound fallback.
var cacheQueries = []string{
	`SELECT COUNT(*) FROM sessions WHERE genre = 'western' ERROR WITHIN 25%`,
	`SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 25%`,
	`SELECT AVG(time), MEDIAN(time) FROM sessions GROUP BY city WITHIN 2 SECONDS`,
	`SELECT SUM(time) FROM sessions WHERE city = 'city2' OR os = 'Linux' ERROR WITHIN 20%`,
	`SELECT COUNT(*) FROM sessions GROUP BY os`,
	`SELECT AVG(time) FROM sessions WHERE genre = 'nosuchgenre' ERROR WITHIN 1%`,
}

// stripCache removes the cache annotation from every decision reason so
// hit/miss responses can be compared against the cache-off reference.
func stripCache(resp *Response) *Response {
	cp := *resp
	cp.Cache = ""
	cp.Decisions = append([]Decision(nil), resp.Decisions...)
	for i := range cp.Decisions {
		r := cp.Decisions[i].Reason
		r = strings.ReplaceAll(r, "; cache=hit", "")
		r = strings.ReplaceAll(r, "; cache=miss", "")
		cp.Decisions[i].Reason = r
	}
	return &cp
}

// twoRuntimes builds a cached and an uncached runtime over ONE shared
// catalog/cluster, so the uncached one is always the ground truth for the
// catalog's current state.
func twoRuntimes(t testing.TB, rows int) (*fixture, *Runtime) {
	f := newFixture(t, rows, Options{PlanCacheSize: 64})
	ref := New(f.cat, f.clus, Options{})
	return f, ref
}

// TestCacheBitIdentity is the tentpole acceptance test at the elp layer:
// with the cache enabled, replaying a template with the same constants
// must return responses bit-identical (DeepEqual, including simulated
// latencies and decisions) to the cache-off path — on the miss AND on
// every subsequent hit.
func TestCacheBitIdentity(t *testing.T) {
	f, ref := twoRuntimes(t, 30000)
	for _, src := range cacheQueries {
		q := parse(t, src)
		want, err := answer(ref, q)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		for rep := 0; rep < 3; rep++ {
			got, err := answer(f.rt, parse(t, src))
			if err != nil {
				t.Fatalf("%q rep %d: %v", src, rep, err)
			}
			wantNote := "hit"
			if rep == 0 {
				wantNote = "miss"
			}
			if got.Cache != wantNote {
				t.Errorf("%q rep %d: Cache = %q, want %q", src, rep, got.Cache, wantNote)
			}
			for _, d := range got.Decisions {
				if !strings.Contains(d.Reason, "; cache="+wantNote) {
					t.Errorf("%q rep %d: Reason %q missing cache=%s", src, rep, d.Reason, wantNote)
				}
			}
			if !reflect.DeepEqual(want, stripCache(got)) {
				t.Errorf("%q rep %d (%s): diverged from cache-off reference\nwant %+v\ngot  %+v",
					src, rep, wantNote, want, stripCache(got))
			}
		}
	}
	s := f.rt.Stats()
	if s.PlanCacheMisses != int64(len(cacheQueries)) || s.PlanCacheHits != 2*int64(len(cacheQueries)) {
		t.Errorf("stats = %d hits / %d misses, want %d / %d",
			s.PlanCacheHits, s.PlanCacheMisses, 2*len(cacheQueries), len(cacheQueries))
	}
}

// TestCacheMissNotCountedOnError: queries that fail to prepare (unknown
// table) never enter the cache and must not skew the hit-rate counters.
func TestCacheMissNotCountedOnError(t *testing.T) {
	f, _ := twoRuntimes(t, 5000)
	before := f.rt.Stats()
	if _, err := answer(f.rt, parse(t, `SELECT COUNT(*) FROM nosuchtable ERROR WITHIN 10%`)); err == nil {
		t.Fatal("unknown table should error")
	}
	after := f.rt.Stats()
	if after.PlanCacheMisses != before.PlanCacheMisses || after.PlanCacheHits != before.PlanCacheHits {
		t.Errorf("errored prepare moved cache counters: %+v -> %+v", before, after)
	}
}

// TestCacheHitSkipsProbes pins the performance contract: a hit must not
// re-run any probe, and an exact replay must not re-run ANY executor work
// (the memoized answer is served).
func TestCacheHitSkipsProbes(t *testing.T) {
	f, _ := twoRuntimes(t, 30000)
	q := `SELECT COUNT(*) FROM sessions WHERE genre = 'western' ERROR WITHIN 25%`
	if _, err := answer(f.rt, parse(t, q)); err != nil {
		t.Fatal(err)
	}
	before := f.rt.Stats()
	if before.ProbeExecs == 0 {
		t.Fatal("cold run should have probed")
	}
	if _, err := answer(f.rt, parse(t, q)); err != nil {
		t.Fatal(err)
	}
	after := f.rt.Stats()
	if after.ProbeExecs != before.ProbeExecs {
		t.Errorf("hit re-probed: %d -> %d", before.ProbeExecs, after.ProbeExecs)
	}
	if after.PlanExecs != before.PlanExecs {
		t.Errorf("exact replay ran the executor: %d -> %d", before.PlanExecs, after.PlanExecs)
	}
	if after.Prepares != before.Prepares {
		t.Errorf("hit re-prepared: %d -> %d", before.Prepares, after.Prepares)
	}

	// Same template, different constant: still a hit (no probes), but the
	// answer is computed for the new constant — exactly one executor run.
	before = after
	resp, err := answer(f.rt, parse(t, `SELECT COUNT(*) FROM sessions WHERE genre = 'drama' ERROR WITHIN 25%`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "hit" {
		t.Fatalf("different constant should hit the template cache, got %q", resp.Cache)
	}
	after = f.rt.Stats()
	if after.ProbeExecs != before.ProbeExecs {
		t.Errorf("constant change re-probed: %d -> %d", before.ProbeExecs, after.ProbeExecs)
	}
	if got := after.PlanExecs - before.PlanExecs; got != 1 {
		t.Errorf("constant change ran the executor %d times, want 1", got)
	}
}

// TestCacheDifferentConstantsCorrectAnswer: a hit with new constants must
// compute the answer for THOSE constants (the cached probe only steers
// resolution selection). COUNT(*) point estimates for two different
// genres must differ and be near their true counts.
func TestCacheDifferentConstantsCorrectAnswer(t *testing.T) {
	f, _ := twoRuntimes(t, 30000)
	counts := map[string]float64{}
	for _, b := range f.tab.Blocks {
		for ri, n := 0, b.NumRows(); ri < n; ri++ {
			counts[b.Chunk.Cols[3].Value(b.Off+ri).S]++
		}
	}
	point := func(genre string) float64 {
		resp, err := answer(f.rt, parse(t, fmt.Sprintf(
			`SELECT COUNT(*) FROM sessions WHERE genre = '%s' ERROR WITHIN 25%%`, genre)))
		if err != nil {
			t.Fatal(err)
		}
		return resp.Result.Groups[0].Estimates[0].Point
	}
	for _, genre := range []string{"western", "drama", "comedy"} {
		got := point(genre)
		truth := counts[genre]
		if got < 0.5*truth || got > 1.5*truth {
			t.Errorf("genre %s: estimate %.0f too far from truth %.0f", genre, got, truth)
		}
	}
}

// TestEpochInvalidation proves no stale serve: after a family refresh
// (AddFamily with a re-drawn sample — what RefreshSamples and
// maintenance.Apply do), a cached template must re-probe, and its answer
// must equal the cache-off path over the refreshed catalog.
func TestEpochInvalidation(t *testing.T) {
	f, ref := twoRuntimes(t, 30000)
	const src = `SELECT COUNT(*) FROM sessions WHERE genre = 'western' ERROR WITHIN 25%`

	if _, err := answer(f.rt, parse(t, src)); err != nil {
		t.Fatal(err)
	}
	// A second warm template that will NOT be re-queried after the
	// refresh: it must go with its generation.
	if _, err := answer(f.rt, parse(t, `SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 25%`)); err != nil {
		t.Fatal(err)
	}
	resp, err := answer(f.rt, parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "hit" {
		t.Fatalf("warm query should hit, got %q", resp.Cache)
	}
	if got := entries(f.rt.gen.Load().plans); got != 2 {
		t.Fatalf("cache holds %d entries before refresh, want 2", got)
	}

	// Refresh the [city] family with a fresh seed (the §4.5 background
	// replacement): the version bumps and the cached probe is stale.
	entry, err := f.cat.Lookup("sessions")
	if err != nil {
		t.Fatal(err)
	}
	versionBefore := entry.Version
	var cityFam *sample.Family
	for _, fam := range entry.Families {
		if fam.Phi.Key() == "city" {
			cityFam = fam
		}
	}
	fresh, err := sample.Build(f.tab, cityFam.Phi, cityFam.Caps,
		sample.BuildConfig{Seed: 99, Nodes: 100, Place: storage.InMemory, RowsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.cat.AddFamily("sessions", fresh); err != nil {
		t.Fatal(err)
	}
	if got := f.cat.Version(); got != versionBefore+1 {
		t.Fatalf("version = %d, want %d (bump observed)", got, versionBefore+1)
	}

	before := f.rt.Stats()
	got, err := answer(f.rt, parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cache != "miss" {
		t.Fatalf("post-refresh query served stale state: Cache = %q, want miss", got.Cache)
	}
	after := f.rt.Stats()
	if after.Prepares == before.Prepares || after.ProbeExecs == before.ProbeExecs {
		t.Error("post-refresh query must re-prepare and re-probe")
	}
	want, err := answer(ref, parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, stripCache(got)) {
		t.Errorf("post-refresh answer diverged from cache-off path\nwant %+v\ngot  %+v", want, stripCache(got))
	}
	// BOTH pre-refresh templates went with their generation; only the
	// re-prepared one is resident (dead catalog snapshots must not ride
	// the LRU).
	if got := entries(f.rt.gen.Load().plans); got != 1 {
		t.Errorf("cache holds %d entries after the refresh, want 1", got)
	}
}

// TestCacheConcurrentHotTemplateWithRefresh is the -race test: 8
// goroutines hammer one hot template while the catalog concurrently
// re-installs a family (version churn). Every answer must equal one of the
// two serial cache-off truths (pre- and post-refresh state); since the
// refresh re-installs byte-identical family content, the two truths
// coincide and every concurrent answer must equal THE serial cache-off
// result, hit or miss.
func TestCacheConcurrentHotTemplateWithRefresh(t *testing.T) {
	f, ref := twoRuntimes(t, 20000)
	const src = `SELECT COUNT(*) FROM sessions WHERE genre = 'western' ERROR WITHIN 25%`
	// srcLim exercises the LIMIT-truncation path on a shared memoized
	// result — a former write/write race between concurrent hits.
	const srcLim = `SELECT AVG(time) FROM sessions WHERE genre = 'western' GROUP BY os ERROR WITHIN 25% LIMIT 2`
	want, err := answer(ref, parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	wantLim, err := answer(ref, parse(t, srcLim))
	if err != nil {
		t.Fatal(err)
	}

	entry, err := f.cat.Lookup("sessions")
	if err != nil {
		t.Fatal(err)
	}
	var cityFam *sample.Family
	for _, fam := range entry.Families {
		if fam.Phi.Key() == "city" {
			cityFam = fam
		}
	}

	const goroutines = 8
	var queriers, refresher sync.WaitGroup
	errs := make(chan error, goroutines*20+1)
	stop := make(chan struct{})
	refresher.Add(1)
	go func() { // concurrent "refresh": same content, the version bumps anyway
		defer refresher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.cat.AddFamily("sessions", cityFam); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		queriers.Add(1)
		go func(g int) {
			defer queriers.Done()
			for i := 0; i < 20; i++ {
				q, exp := src, want
				if (i+g)%2 == 1 {
					q, exp = srcLim, wantLim
				}
				resp, err := answer(f.rt, parse(t, q))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !reflect.DeepEqual(exp, stripCache(resp)) {
					errs <- fmt.Errorf("goroutine %d iter %d (%s): diverged from serial cache-off result",
						g, i, resp.Cache)
					return
				}
			}
		}(g)
	}
	queriers.Wait()
	close(stop)
	refresher.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// entries counts a cache's entries.
func entries[V any](c *plancache.Cache[V]) int {
	n := 0
	c.Range(func(string, V) bool { n++; return true })
	return n
}
