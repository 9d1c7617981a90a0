package blinkdb

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"blinkdb/internal/telemetry"
)

// stripTrace zeroes the rendered trace so answer comparisons ignore the
// (timing-dependent) span tree.
func stripTrace(r *Result) *Result {
	c := *r
	c.Trace = ""
	return &c
}

// TestExplainAnalyzeEndToEnd drives the EXPLAIN ANALYZE surface: the cold
// run renders a span tree with the cold-path spans and cache markers, the
// warm run (EXPLAIN ANALYZE shares cache state with the plain query)
// renders the result-cache hit path, and the answers match the plain
// query bit for bit.
func TestExplainAnalyzeEndToEnd(t *testing.T) {
	eng := demoEngine(t, 20000)
	const plain = `SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 10%`

	cold, err := eng.Query(`EXPLAIN ANALYZE ` + plain)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Trace == "" {
		t.Fatal("EXPLAIN ANALYZE returned no trace")
	}
	for _, want := range []string{"query", "normalize", "execute", "plan-cache lookup", "cache=miss", "result=miss", "prepare", "bind+scan", "scan blocks=", "merge", "build result"} {
		if !strings.Contains(cold.Trace, want) {
			t.Errorf("cold trace missing %q:\n%s", want, cold.Trace)
		}
	}

	warm, err := eng.Query(`EXPLAIN ANALYZE ` + plain)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.Trace, "result=hit") {
		t.Errorf("warm trace should mark the result-cache hit:\n%s", warm.Trace)
	}
	if strings.Contains(warm.Trace, "prepare") || strings.Contains(warm.Trace, "scan blocks=") {
		t.Errorf("warm hit should not prepare or scan:\n%s", warm.Trace)
	}

	// The plain replay is another result-cache hit; modulo the rendered
	// trace it must equal the analyzed warm answer exactly.
	rep, err := eng.Query(plain)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace != "" {
		t.Errorf("plain query should carry no trace, got:\n%s", rep.Trace)
	}
	if !reflect.DeepEqual(stripTrace(warm), stripTrace(rep)) {
		t.Errorf("EXPLAIN ANALYZE changed the answer:\nanalyze %+v\nplain   %+v", stripTrace(warm), stripTrace(rep))
	}
}

// TestQueryTracedSpanAccounting checks that span durations account for
// the query: on the cold path the root's children are sequential, so
// their durations sum to no more than the root and cover most of it:
// parse, normalize, the run and result building each have a span, so only
// the glue between them is untimed.
func TestQueryTracedSpanAccounting(t *testing.T) {
	eng := demoEngine(t, 20000)
	const src = `SELECT AVG(sessiontime) FROM sessions WHERE city = 'SF' ERROR WITHIN 10%`

	res, tr, err := eng.QueryTraced(src)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || tr == nil {
		t.Fatal("QueryTraced returned nil result or trace")
	}
	root := tr.Root()
	total := root.Duration()
	if total <= 0 {
		t.Fatalf("root duration %v", total)
	}
	var children float64
	for _, c := range root.Children() {
		children += c.Duration().Seconds()
	}
	if children > total.Seconds()*1.001 {
		t.Errorf("sequential children sum %.6fs exceeds root %.6fs:\n%s", children, total.Seconds(), tr.Render())
	}
	if children < total.Seconds()*0.5 {
		t.Errorf("children cover only %.1f%% of the cold root (want most of it):\n%s",
			100*children/total.Seconds(), tr.Render())
	}

	// Same containment one level down: every span's sequential children
	// fit inside it (workers=1 ⇒ no overlapping shard spans here).
	tr.Walk(func(s *telemetry.Span, depth int) {
		var sum float64
		for _, c := range s.Children() {
			sum += c.Duration().Seconds()
		}
		if sum > s.Duration().Seconds()*1.001 {
			t.Errorf("span %q children sum %.6fs exceeds span %.6fs", s.Name(), sum, s.Duration().Seconds())
		}
	})

	// Warm replay: traced too, served from the result cache.
	_, warm, err := eng.QueryTraced(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.Render(), "result=hit") {
		t.Errorf("warm QueryTraced should hit:\n%s", warm.Render())
	}

	// Engine traces export as Chrome trace events, one per span.
	spans := 0
	for _, x := range []*telemetry.Trace{tr, warm} {
		x.Walk(func(*telemetry.Span, int) { spans++ })
	}
	var buf bytes.Buffer
	if err := telemetry.WriteChrome(&buf, []*telemetry.Trace{tr, warm}); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome export is not a JSON array: %v", err)
	}
	if len(events) != spans {
		t.Errorf("chrome export has %d events for %d spans", len(events), spans)
	}
}

// TestCacheMarkerMatrix sweeps plan-cache {miss,hit,disabled} ×
// result-cache {miss,hit,disabled} through the public API and asserts the
// exact cache=/result= markers of every cell, plus the concurrent
// result-cache {shared} outcome below.
func TestCacheMarkerMatrix(t *testing.T) {
	const rows = 15000
	const q1 = `SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 10%`
	const q2 = `SELECT AVG(sessiontime) FROM sessions WHERE city = 'SF' ERROR WITHIN 10%`

	type step struct {
		src                  string
		wantPlan, wantResult string // "" = no marker allowed
	}
	cases := []struct {
		name          string
		plans, result bool
		steps         []step
	}{
		{
			name: "both-on", plans: true, result: true,
			steps: []step{
				{q1, "miss", "miss"}, // cold template, cold answer
				{q1, "", "hit"},      // replay: plan pipeline skipped entirely
				{q2, "hit", "miss"},  // fresh constant: template hit, answer miss
			},
		},
		{
			name: "plan-only", plans: true, result: false,
			steps: []step{
				{q1, "miss", ""},
				{q1, "hit", ""}, // replay re-executes, amortized by the plan cache
			},
		},
		{
			name: "result-only", plans: false, result: true,
			steps: []step{
				{q1, "miss", "miss"}, // plan cache disabled reports miss-equivalent "" — see below
				{q1, "", "hit"},
			},
		},
		{
			name: "both-off", plans: false, result: false,
			steps: []step{
				{q1, "", ""},
				{q1, "", ""},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := withCaches(demoEngineCfg(t, rows, Config{Scale: 1e4, Seed: 7, CacheTables: true}), tc.plans, tc.result)
			for i, st := range tc.steps {
				wantPlan := st.wantPlan
				if !tc.plans {
					wantPlan = "" // disabled cache never annotates
				}
				res, err := eng.Query(st.src)
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if res.PlanCache != wantPlan {
					t.Errorf("step %d: PlanCache = %q, want %q", i, res.PlanCache, wantPlan)
				}
				if res.ResultCache != st.wantResult {
					t.Errorf("step %d: ResultCache = %q, want %q", i, res.ResultCache, st.wantResult)
				}
				if wantPlan == "" && strings.Contains(res.Explanation, "cache=") {
					t.Errorf("step %d: unexpected plan marker in %q", i, res.Explanation)
				} else if wantPlan != "" && !strings.Contains(res.Explanation, "cache="+wantPlan) {
					t.Errorf("step %d: EXPLAIN %q missing cache=%s", i, res.Explanation, wantPlan)
				}
				if st.wantResult == "" && strings.Contains(res.Explanation, "result=") {
					t.Errorf("step %d: unexpected result marker in %q", i, res.Explanation)
				} else if st.wantResult != "" && !strings.Contains(res.Explanation, "result="+st.wantResult) {
					t.Errorf("step %d: EXPLAIN %q missing result=%s", i, res.Explanation, st.wantResult)
				}
			}
		})
	}

	// The shared cell needs concurrency: stampede one cold key and check
	// each answer's marker matches its reported outcome exactly, with one
	// miss and the rest hit/shared.
	t.Run("shared", func(t *testing.T) {
		eng := demoEngine(t, rows)
		const goroutines = 8
		results := make([]*Result, goroutines)
		errs := make([]error, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				results[g], errs[g] = eng.Query(q1)
			}(g)
		}
		close(start)
		wg.Wait()
		misses := 0
		for g, res := range results {
			if errs[g] != nil {
				t.Fatalf("goroutine %d: %v", g, errs[g])
			}
			switch res.ResultCache {
			case "miss":
				misses++
			case "hit", "shared":
				if res.PlanCache != "" {
					t.Errorf("goroutine %d: served answer leaked PlanCache %q", g, res.PlanCache)
				}
			default:
				t.Errorf("goroutine %d: unexpected outcome %q", g, res.ResultCache)
			}
			if !strings.Contains(res.Explanation, "result="+res.ResultCache) {
				t.Errorf("goroutine %d: EXPLAIN %q missing result=%s", g, res.Explanation, res.ResultCache)
			}
		}
		if misses != 1 {
			t.Errorf("misses = %d, want exactly 1 (singleflight)", misses)
		}
	})
}

// TestTelemetryDisabledBitIdentical replays a query mix through two
// engines differing only in whether anything records telemetry — the
// second runs its queries on a runtime without a registry, as the
// experiments' runtimes do — and requires deeply equal results:
// estimates, bounds, markers AND simulated latencies.
func TestTelemetryDisabledBitIdentical(t *testing.T) {
	const rows = 15000
	on := demoEngineCfg(t, rows, Config{Scale: 1e4, Seed: 7, CacheTables: true})
	off := demoEngineCfg(t, rows, Config{Scale: 1e4, Seed: 7, CacheTables: true})
	off.tele = nil
	withCaches(off, true, true)

	queries := []string{
		`SELECT COUNT(*) FROM sessions`,
		`SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 10%`,
		`SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 10%`, // result hit
		`SELECT AVG(sessiontime) FROM sessions WHERE city = 'SF' ERROR WITHIN 10%`, // plan hit
		`SELECT COUNT(*), RELATIVE ERROR AT 95% CONFIDENCE FROM sessions WHERE city = 'SF' GROUP BY os WITHIN 2 SECONDS`,
	}
	for _, src := range queries {
		a, err := on.Query(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		b, err := off.Query(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("telemetry changed the answer for %q:\n on %+v\noff %+v", src, a, b)
		}
	}
	if snap := off.Telemetry(); len(snap.Templates) != 0 {
		t.Errorf("unrecorded engine should report an empty snapshot, got %d templates", len(snap.Templates))
	}
	if snap := on.Telemetry(); len(snap.Templates) == 0 {
		t.Error("recording engine recorded no templates")
	}
}

// TestEngineTelemetrySnapshot exercises the public histogram surface:
// per-template percentiles are ordered, counts add up, and the bounded
// template carries a predicted-vs-observed bound ratio.
func TestEngineTelemetrySnapshot(t *testing.T) {
	eng := demoEngine(t, 20000)
	const bounded = `SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 10%`
	for i := 0; i < 5; i++ {
		if _, err := eng.Query(bounded); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Query(`SELECT COUNT(*) FROM sessions`); err != nil {
		t.Fatal(err)
	}

	snap := eng.Telemetry()
	if len(snap.Templates) != 2 {
		t.Fatalf("templates = %d, want 2", len(snap.Templates))
	}
	var total uint64
	for _, ts := range snap.Templates {
		total += ts.Queries
		q := ts.Latency
		if !(q.P50 <= q.P95 && q.P95 <= q.P99 && q.P99 <= q.Max) {
			t.Errorf("template %q latency percentiles not monotone: %+v", ts.Key, q)
		}
		if q.Count != ts.Queries {
			t.Errorf("template %q: latency count %d != queries %d", ts.Key, q.Count, ts.Queries)
		}
	}
	if total != 6 {
		t.Errorf("total queries = %d, want 6", total)
	}
	for _, ts := range snap.Templates {
		if !strings.Contains(ts.Key, "ERROR WITHIN") {
			continue
		}
		if ts.PredictedBound.Mean <= 0 {
			t.Error("bounded template should record a positive predicted bound")
		}
		if ts.PredictedOverObservedBound <= 0 {
			t.Error("bounded template should have a predicted/observed bound ratio")
		}
		if ts.Queries != 5 {
			t.Errorf("bounded template queries = %d, want 5", ts.Queries)
		}
	}
}

// TestRegistryObservations checks the per-template accounting of what
// observationFor records for executed answers (the result cache is off, so
// every query executes): bounded templates record positive latency, rows,
// bytes and a positive predicted error half-width; exact templates record
// zero bounds.
func TestRegistryObservations(t *testing.T) {
	eng := withCaches(demoEngineCfg(t, 15000, Config{Scale: 1e4, Seed: 7, CacheTables: true}), true, false)
	const bounded = `SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 10%`
	const exact = `SELECT COUNT(*) FROM sessions`
	for _, src := range []string{bounded, bounded, bounded, exact} {
		if _, err := eng.Query(src); err != nil {
			t.Fatal(err)
		}
	}

	snap := eng.Telemetry()
	if len(snap.Templates) != 2 {
		t.Fatalf("want 2 templates, got %d", len(snap.Templates))
	}
	byKey := map[string]telemetry.TemplateSnapshot{}
	for _, ts := range snap.Templates {
		byKey[ts.Key] = ts
	}
	bst, _ := parse(bounded, nil)
	est, _ := parse(exact, nil)
	b, e := byKey[bst.Key], byKey[est.Key]
	if b.Queries != 3 || e.Queries != 1 {
		t.Fatalf("query counts: bounded %d (want 3), exact %d (want 1)", b.Queries, e.Queries)
	}
	if b.Latency.Count != 3 || b.Latency.P50 <= 0 {
		t.Errorf("bounded latency histogram: count %d p50 %g", b.Latency.Count, b.Latency.P50)
	}
	if b.RowsScanned.Mean <= 0 || b.BytesScanned.Mean <= 0 {
		t.Errorf("bounded rows/bytes means: %g / %g", b.RowsScanned.Mean, b.BytesScanned.Mean)
	}
	if b.PredictedBound.Mean <= 0 {
		t.Error("bounded template should record a positive predicted bound")
	}
	if b.PredictedLatency.Mean <= 0 {
		t.Error("bounded template should record a positive predicted (simulated) latency")
	}
	if e.PredictedBound.Mean != 0 || e.ObservedBound.Mean != 0 {
		t.Errorf("exact template should record zero bounds, got pred %g obs %g",
			e.PredictedBound.Mean, e.ObservedBound.Mean)
	}
}

// TestResultPredictedBound pins the public projection field: positive and
// within two orders of magnitude of the reported half-width for a sampled
// bounded answer; zero for exact execution.
func TestResultPredictedBound(t *testing.T) {
	eng := demoEngine(t, 20000)
	res, err := eng.Query(`SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 10%`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.SampleDescription, "S(") {
		t.Skip("answered from base table; no projection to test")
	}
	if res.PredictedBound <= 0 {
		t.Fatalf("sampled bounded answer should predict a bound, got %g", res.PredictedBound)
	}
	var worst float64
	for _, row := range res.Rows {
		for _, c := range row.Cells {
			if !c.Exact && c.Bound > worst {
				worst = c.Bound
			}
		}
	}
	if worst > 0 && (res.PredictedBound > worst*100 || res.PredictedBound < worst/100) {
		t.Errorf("predicted bound %g wildly off reported %g", res.PredictedBound, worst)
	}

	exact, err := eng.Query(`SELECT COUNT(*) FROM sessions`)
	if err != nil {
		t.Fatal(err)
	}
	if exact.PredictedBound != 0 {
		t.Errorf("exact answer should predict no bound, got %g", exact.PredictedBound)
	}
}

// TestEngineStatsDelta pins the windowed-counters arithmetic on the
// public type.
func TestEngineStatsDelta(t *testing.T) {
	eng := demoEngine(t, 15000)
	const q = `SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 10%`
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	base := eng.Stats()
	for i := 0; i < 2; i++ {
		if _, err := eng.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	d := eng.Stats().Delta(base)
	if d.ResultCacheHits != 2 || d.ResultCacheMisses != 0 || d.Prepares != 0 {
		t.Errorf("replay window should be two pure hits: %+v", d)
	}
	if d.PlanExecs != 0 {
		t.Errorf("result hits execute nothing, got %d plan execs", d.PlanExecs)
	}
	if len(d.AnswersByLevel) != 0 {
		t.Errorf("no execution ⇒ no level counts, got %+v", d.AnswersByLevel)
	}
}
