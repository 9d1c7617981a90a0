package blinkdb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"blinkdb/internal/elp"
)

// demoEnginePlanCacheOnly is demoEngine with the result cache disabled,
// so replay expectations (PlanCache = "hit" on every warm query) test
// the plan-cache layer rather than being short-circuited by a
// result-cache hit.
func demoEnginePlanCacheOnly(t testing.TB, rows int) *Engine {
	t.Helper()
	return withCaches(demoEngineCfg(t, rows, Config{Scale: 1e4, Seed: 7, CacheTables: true}), true, false)
}

// withCaches gives eng a fresh runtime with each of its two caches on, at
// the size Open gives it, or off: the reference engines the cache suites
// compare the default engine with.
func withCaches(eng *Engine, plans, results bool) *Engine {
	opt := elp.Options{Scale: eng.cfg.Scale, Workers: eng.cfg.Workers}
	if plans {
		opt.PlanCacheSize = planCacheSize
	}
	if results {
		opt.ResultCacheSize = resultCacheSize
	}
	eng.rt = elp.New(eng.cat, eng.clus, opt)
	return eng
}

// TestPlanCacheEquivalenceEndToEnd is the public-API acceptance check of
// the prepare/execute tentpole: an engine with the plan cache disabled
// (withCaches) answers every query bit-identically to main's
// uncached pipeline, and the default cached engine returns the same
// answers — estimates, error bars, scan counters AND simulated latencies
// — for identical queries on miss and on every hit.
func TestPlanCacheEquivalenceEndToEnd(t *testing.T) {
	const rows = 30000
	// Result cache off on BOTH engines: this test pins the plan-cache
	// layer in isolation (the result-cache layering has its own suite in
	// resultcache_test.go).
	base := Config{Scale: 1e4, Seed: 7, CacheTables: true, Workers: 1}
	engOff := withCaches(demoEngineCfg(t, rows, base), false, false)
	engOn := withCaches(demoEngineCfg(t, rows, base), true, false)

	for _, src := range demoQueries {
		want, err := engOff.Query(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if want.PlanCache != "" {
			t.Fatalf("%q: disabled cache must not annotate, got %q", src, want.PlanCache)
		}
		if strings.Contains(want.Explanation, "cache=") {
			t.Fatalf("%q: disabled cache leaked a marker into EXPLAIN: %q", src, want.Explanation)
		}
		// Replaying on the cache-off engine is also bit-identical (no
		// hidden state).
		again, err := engOff.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, again) {
			t.Errorf("%q: cache-off replay diverged", src)
		}
		for rep := 0; rep < 2; rep++ {
			got, err := engOn.Query(src)
			if err != nil {
				t.Fatalf("%q rep %d: %v", src, rep, err)
			}
			wantNote := "hit"
			if rep == 0 {
				wantNote = "miss"
			}
			if got.PlanCache != wantNote {
				t.Errorf("%q rep %d: PlanCache = %q, want %q", src, rep, got.PlanCache, wantNote)
			}
			if !strings.Contains(got.Explanation, "cache="+wantNote) {
				t.Errorf("%q rep %d: EXPLAIN %q missing cache=%s", src, rep, got.Explanation, wantNote)
			}
			if !reflect.DeepEqual(want, stripPlanCache(got)) {
				t.Errorf("%q rep %d (%s): cached engine diverged from cache-off\nwant %+v\ngot  %+v",
					src, rep, wantNote, want, stripPlanCache(got))
			}
		}
	}
	s := engOn.Stats()
	if s.PlanCacheHits == 0 || s.PlanCacheMisses != int64(len(demoQueries)) {
		t.Errorf("stats: %d hits / %d misses, want >0 / %d", s.PlanCacheHits, s.PlanCacheMisses, len(demoQueries))
	}
	if off := engOff.Stats(); off.PlanCacheHits != 0 || off.PlanCacheMisses != 0 {
		t.Errorf("disabled cache counted outcomes: %+v", off)
	}
}

// TestPlanCacheHotTemplateThroughput exercises the hot-template serving
// contract end to end: replaying one template is all hits after the
// first query, runs zero additional probes, and answers for NEW
// constants stay correct (computed for those constants, not replayed).
func TestPlanCacheHotTemplateThroughput(t *testing.T) {
	eng := demoEnginePlanCacheOnly(t, 30000)
	template := `SELECT AVG(sessiontime) FROM sessions WHERE genre = '%s' ERROR WITHIN 20%%`

	if _, err := eng.Query(fmt.Sprintf(template, "western")); err != nil {
		t.Fatal(err)
	}
	cold := eng.Stats()
	if cold.ProbeExecs == 0 {
		t.Fatal("cold query should probe (genre is not a stratification column)")
	}
	for i := 0; i < 10; i++ {
		genre := "western"
		if i%2 == 1 {
			genre = "drama"
		}
		res, err := eng.Query(fmt.Sprintf(template, genre))
		if err != nil {
			t.Fatal(err)
		}
		if res.PlanCache != "hit" {
			t.Fatalf("replay %d: PlanCache = %q, want hit", i, res.PlanCache)
		}
	}
	warm := eng.Stats()
	if warm.ProbeExecs != cold.ProbeExecs {
		t.Errorf("hot replays re-probed: %d -> %d", cold.ProbeExecs, warm.ProbeExecs)
	}
	if warm.PlanCacheHits != 10 {
		t.Errorf("hits = %d, want 10", warm.PlanCacheHits)
	}
	if hr := warm.PlanCacheHitRate(); hr < 0.9 {
		t.Errorf("hit rate = %.2f, want ≥ 0.9", hr)
	}

	// The two genres must get different answers (each computed for its
	// own constant) close to their exact values.
	for _, genre := range []string{"western", "drama"} {
		approx, err := eng.Query(fmt.Sprintf(template, genre))
		if err != nil {
			t.Fatal(err)
		}
		exact, err := eng.Query(fmt.Sprintf(`SELECT AVG(sessiontime) FROM sessions WHERE genre = '%s'`, genre))
		if err != nil {
			t.Fatal(err)
		}
		a, x := approx.Rows[0].Cells[0].Value, exact.Rows[0].Cells[0].Value
		if a < 0.7*x || a > 1.3*x {
			t.Errorf("genre %s: cached-template estimate %.2f too far from exact %.2f", genre, a, x)
		}
	}
}

// TestPlanCacheInvalidationOnRefresh: after RefreshSamples, a cached
// template must re-prepare (version bump observed) — never serve probes
// from the replaced sample.
func TestPlanCacheInvalidationOnRefresh(t *testing.T) {
	eng := demoEnginePlanCacheOnly(t, 20000)
	const src = `SELECT AVG(sessiontime) FROM sessions WHERE genre = 'western' ERROR WITHIN 20%`

	if _, err := eng.Query(src); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCache != "hit" {
		t.Fatalf("warm query should hit, got %q", res.PlanCache)
	}

	if _, ok, err := eng.RefreshSamples("sessions"); err != nil || !ok {
		t.Fatalf("refresh: ok=%v err=%v", ok, err)
	}
	before := eng.Stats()
	res, err = eng.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCache != "miss" {
		t.Fatalf("post-refresh query served stale plan: %q, want miss", res.PlanCache)
	}
	after := eng.Stats()
	if after.Prepares == before.Prepares || after.ProbeExecs == before.ProbeExecs {
		t.Error("post-refresh query must re-prepare and re-probe")
	}
	// And the re-prepared template is cached again.
	res, err = eng.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCache != "hit" {
		t.Errorf("re-prepared template should hit, got %q", res.PlanCache)
	}
}

// TestPlanCacheInvalidationOnMaintain: a Maintain pass that rebuilds a
// family (forced re-solve under a changed workload) must invalidate
// cached templates the same way.
func TestPlanCacheInvalidationOnMaintain(t *testing.T) {
	eng := demoEnginePlanCacheOnly(t, 20000)
	const src = `SELECT AVG(sessiontime) FROM sessions WHERE genre = 'western' ERROR WITHIN 20%`
	if _, err := eng.Query(src); err != nil {
		t.Fatal(err)
	}
	if res, _ := eng.Query(src); res.PlanCache != "hit" {
		t.Fatalf("warm query should hit")
	}

	rep, err := eng.Maintain("sessions", MaintainOptions{
		Templates: []Template{{Columns: []string{"genre"}, Weight: 1}},
		Force:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved || (len(rep.Built) == 0 && len(rep.Dropped) == 0) {
		t.Fatalf("forced maintain under a new workload should rebuild families: %+v", rep)
	}
	res, err := eng.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCache != "miss" {
		t.Errorf("post-maintain query served stale plan: %q, want miss", res.PlanCache)
	}
}
