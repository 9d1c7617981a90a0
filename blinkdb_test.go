package blinkdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// demoEngine loads a skewed sessions table and builds samples, with the
// default worker pool (Workers: 0 → min(8, GOMAXPROCS)).
func demoEngine(t testing.TB, rows int) *Engine {
	t.Helper()
	return demoEngineWorkers(t, rows, 0)
}

func TestEndToEndExactQuery(t *testing.T) {
	eng := demoEngine(t, 20000)
	res, err := eng.Query(`SELECT COUNT(*) FROM sessions`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Cells[0].Value != 20000 {
		t.Fatalf("count = %+v", res.Rows)
	}
	if !res.Rows[0].Cells[0].Exact {
		t.Error("unbounded query should be exact")
	}
	if res.SampleDescription != "base table" {
		t.Errorf("sample = %q", res.SampleDescription)
	}
}

func TestEndToEndErrorBoundedQuery(t *testing.T) {
	eng := demoEngine(t, 50000)
	res, err := eng.Query(
		`SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 5% AT CONFIDENCE 95%`)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := eng.Query(`SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY'`)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Rows[0].Cells[0].Value
	want := exact.Rows[0].Cells[0].Value
	if math.Abs(got-want)/want > 0.08 {
		t.Errorf("estimate %.2f vs exact %.2f", got, want)
	}
	if res.MaxRelErr() > 0.08 {
		t.Errorf("reported error %.3f above bound", res.MaxRelErr())
	}
	if !strings.Contains(res.SampleDescription, "S(") {
		t.Errorf("should answer from a stratified sample, got %q", res.SampleDescription)
	}
	if res.Explanation == "" {
		t.Error("explanation empty")
	}
}

func TestEndToEndTimeBoundedQuery(t *testing.T) {
	eng := demoEngine(t, 50000)
	res, err := eng.Query(
		`SELECT COUNT(*), RELATIVE ERROR AT 95% CONFIDENCE FROM sessions WHERE city = 'SF' GROUP BY os WITHIN 2 SECONDS`)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimLatencySeconds > 2.1 {
		t.Errorf("latency %.2f exceeds bound", res.SimLatencySeconds)
	}
	if len(res.Rows) != 3 {
		t.Errorf("groups = %d, want 3 OSes", len(res.Rows))
	}
}

// demoEngineWorkers is demoEngine with an explicit executor pool size.
func demoEngineWorkers(t testing.TB, rows, workers int) *Engine {
	t.Helper()
	return demoEngineCfg(t, rows, Config{Scale: 1e4, Seed: 7, CacheTables: true, Workers: workers})
}

// demoEngineCfg loads the standard demo dataset into an engine with an
// arbitrary configuration (cache and worker sweeps).
func demoEngineCfg(t testing.TB, rows int, cfg Config) *Engine {
	t.Helper()
	eng := Open(cfg)
	load := eng.CreateTable("sessions",
		Col("city", String),
		Col("os", String),
		Col("genre", String),
		Col("sessiontime", Float),
		Col("ended", Bool),
	)
	rng := rand.New(rand.NewSource(3))
	cities := []string{"NY", "SF", "LA", "Austin", "Boise", "Fargo"}
	weights := []float64{0.5, 0.25, 0.15, 0.06, 0.03, 0.01}
	oses := []string{"Win7", "OSX", "Linux"}
	genres := []string{"western", "drama"}
	pick := func() string {
		u := rng.Float64()
		for i, w := range weights {
			u -= w
			if u <= 0 {
				return cities[i]
			}
		}
		return cities[len(cities)-1]
	}
	for i := 0; i < rows; i++ {
		if err := load.Append(
			pick(), oses[rng.Intn(3)], genres[rng.Intn(2)],
			rng.ExpFloat64()*100, rng.Float64() < 0.9,
		); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateSamples("sessions", SampleOptions{
		BudgetFraction: 0.5,
		K:              2000,
		Templates: []Template{
			{Columns: []string{"city"}, Weight: 0.7},
			{Columns: []string{"os"}, Weight: 0.3},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// demoQueries covers exact, error-bounded, time-bounded, grouped,
// disjunctive and zero-match execution through the public API.
var demoQueries = []string{
	`SELECT COUNT(*) FROM sessions`,
	`SELECT AVG(sessiontime), MEDIAN(sessiontime) FROM sessions GROUP BY city`,
	`SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 5% AT CONFIDENCE 95%`,
	`SELECT COUNT(*) FROM sessions WHERE city = 'SF' GROUP BY os WITHIN 2 SECONDS`,
	`SELECT SUM(sessiontime) FROM sessions WHERE city = 'NY' OR os = 'Linux' ERROR WITHIN 10%`,
	`SELECT COUNT(*) FROM sessions WHERE city = 'Atlantis'`,
}

// TestWorkersEquivalenceEndToEnd pins the public-API contract of the
// parallel executor: engines differing only in Config.Workers return
// DeepEqual-identical results — estimates, error bars, plan decisions,
// scan counters AND simulated latency (the cluster model prices block
// placement, not the scan pool) — for every demo query shape plus a
// grouped quantile and a disjunctive AVG.
func TestWorkersEquivalenceEndToEnd(t *testing.T) {
	queries := append([]string{
		`SELECT QUANTILE(sessiontime, 0.9) FROM sessions WHERE ended = 1 GROUP BY genre ERROR WITHIN 15%`,
		`SELECT AVG(sessiontime) FROM sessions WHERE city = 'Fargo' OR os = 'Win7' ERROR WITHIN 5%`,
	}, demoQueries...)
	engines := map[int]*Engine{}
	for _, workers := range []int{1, 2, 8} {
		engines[workers] = demoEngineWorkers(t, 30000, workers)
	}
	for _, src := range queries {
		want, err := engines[1].Query(src)
		if err != nil {
			t.Fatalf("%q (workers=1): %v", src, err)
		}
		for _, workers := range []int{2, 8} {
			got, err := engines[workers].Query(src)
			if err != nil {
				t.Fatalf("%q (workers=%d): %v", src, workers, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%q: workers=%d diverged from workers=1\nwant %+v\ngot  %+v", src, workers, want, got)
			}
		}
	}
}

func TestRareGroupPresent(t *testing.T) {
	eng := demoEngine(t, 50000)
	res, err := eng.Query(
		`SELECT COUNT(*) FROM sessions GROUP BY city ERROR WITHIN 20%`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Rows {
		if r.Group == "Fargo" {
			found = true
		}
	}
	if !found {
		t.Error("stratified sampling must not lose the rare Fargo group")
	}
}

func TestLoaderErrors(t *testing.T) {
	eng := Open(Config{})
	load := eng.CreateTable("t", Col("a", Int))
	if err := load.Append(1, 2); err == nil {
		t.Error("arity mismatch should error")
	}
	// Error is sticky.
	if err := load.Append(1); err == nil {
		t.Error("loader error should be sticky")
	}
	if err := load.Close(); err == nil {
		t.Error("Close should surface the sticky error")
	}

	load2 := eng.CreateTable("t2", Col("a", Int))
	if err := load2.Append(struct{}{}); err == nil {
		t.Error("unsupported type should error")
	}
}

// TestLoaderClosedRejectsReuse: a loader is finished once Close returns.
// A later Append must not silently drop its row, and a second Close must
// not re-register the table, which would discard the samples built on it.
func TestLoaderClosedRejectsReuse(t *testing.T) {
	eng := Open(Config{})
	load := eng.CreateTable("t", Col("a", Int), Col("x", Float))
	for i := 0; i < 1000; i++ {
		if err := load.Append(i%10, float64(100+i%20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateSamples("t", SampleOptions{
		Templates: []Template{{Columns: []string{"a"}, Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	const bounded = `SELECT AVG(x) FROM t ERROR WITHIN 10%`
	before, err := eng.Query(bounded)
	if err != nil {
		t.Fatal(err)
	}
	if before.SampleDescription == "base table" {
		t.Fatalf("the bounded query should read a sample: %s", before.Explanation)
	}

	if err := load.Append(1, 1.0); err == nil {
		t.Error("Append after Close returned nil")
	}
	if err := load.Close(); err == nil {
		t.Error("a second Close returned nil")
	}
	if n, err := eng.TableRows("t"); err != nil || n != 1000 {
		t.Errorf("rows = %d, err = %v; want the 1000 loaded before Close", n, err)
	}
	after, err := eng.Query(bounded)
	if err != nil {
		t.Fatal(err)
	}
	if after.SampleDescription != before.SampleDescription {
		t.Errorf("the bounded query moved from %q to %q", before.SampleDescription, after.SampleDescription)
	}
}

func TestValueConversions(t *testing.T) {
	eng := Open(Config{})
	load := eng.CreateTable("conv",
		Col("i", Int), Col("f", Float), Col("s", String), Col("b", Bool))
	if err := load.Append(int32(1), float32(2.5), "x", true); err != nil {
		t.Fatal(err)
	}
	if err := load.Append(int64(2), 3.5, "y", false); err != nil {
		t.Fatal(err)
	}
	if err := load.Append(nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := load.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := eng.TableRows("conv")
	if err != nil || n != 3 {
		t.Errorf("rows = %d, err = %v", n, err)
	}
}

func TestCreateSamplesValidation(t *testing.T) {
	eng := Open(Config{})
	if _, err := eng.CreateSamples("nope", SampleOptions{}); err == nil {
		t.Error("unknown table should error")
	}
	load := eng.CreateTable("t", Col("a", Int))
	load.Append(1)
	load.Close()
	if _, err := eng.CreateSamples("t", SampleOptions{}); err == nil {
		t.Error("missing templates should error")
	}
}

func TestSampleReportBudget(t *testing.T) {
	eng := demoEngine(t, 20000)
	// demoEngine already created samples; re-create with a tight budget.
	rep, err := eng.CreateSamples("sessions", SampleOptions{
		BudgetFraction: 0.25,
		K:              500,
		Templates: []Template{
			{Columns: []string{"city"}, Weight: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var stratifiedBytes int64
	hasUniform := false
	for _, f := range rep.Families {
		if len(f.Columns) == 0 {
			hasUniform = true
			continue
		}
		stratifiedBytes += f.StorageBytes
	}
	if stratifiedBytes > rep.BudgetBytes {
		t.Errorf("stratified bytes %d exceed budget %d", stratifiedBytes, rep.BudgetBytes)
	}
	if !hasUniform {
		t.Error("uniform family always built")
	}
}

func TestQueryErrors(t *testing.T) {
	eng := demoEngine(t, 1000)
	for _, q := range []string{
		`SELECT`, // parse error
		`SELECT COUNT(*) FROM missing`,
		`SELECT COUNT(*) FROM sessions WHERE bogus = 1`,
	} {
		if _, err := eng.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestTablesAndRefresh(t *testing.T) {
	eng := demoEngine(t, 5000)
	if got := eng.Tables(); len(got) != 1 || got[0] != "sessions" {
		t.Errorf("Tables = %v", got)
	}
	cols, ok, err := eng.RefreshSamples("sessions")
	if err != nil || !ok {
		t.Fatalf("refresh: ok=%v err=%v", ok, err)
	}
	_ = cols
	if _, _, err := eng.RefreshSamples("missing"); err == nil {
		t.Error("unknown table refresh should error")
	}
}

func TestDisjunctiveQueryEndToEnd(t *testing.T) {
	eng := demoEngine(t, 30000)
	res, err := eng.Query(
		`SELECT COUNT(*) FROM sessions WHERE city = 'NY' OR os = 'OSX' ERROR WITHIN 10%`)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := eng.Query(`SELECT COUNT(*) FROM sessions WHERE city = 'NY' OR os = 'OSX'`)
	got := res.Rows[0].Cells[0]
	want := exact.Rows[0].Cells[0].Value
	// The disjuncts overlap (NY sessions on OSX match both); each row must
	// count once, so the reported interval covers the exact count.
	if math.Abs(got.Value-want) > got.Bound {
		t.Errorf("disjunctive estimate %.0f ± %.0f does not cover the exact %.0f", got.Value, got.Bound, want)
	}
}

// TestDisjunctiveExactFallback: a bound no sample meets sends each
// disjunct to the base table, and the merged answer must be the exact
// count bit for bit — rows matching both disjuncts counted once.
func TestDisjunctiveExactFallback(t *testing.T) {
	eng := demoEngine(t, 30000)
	const where = `FROM sessions WHERE city = 'NY' OR os = 'OSX'`
	bounded, err := eng.Query(`SELECT COUNT(*) ` + where + ` ERROR WITHIN 0.01%`)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := eng.Query(`SELECT COUNT(*) ` + where)
	if err != nil {
		t.Fatal(err)
	}
	got, want := bounded.Rows[0].Cells[0], exact.Rows[0].Cells[0]
	if !got.Exact || math.Float64bits(got.Value) != math.Float64bits(want.Value) {
		t.Errorf("bounded disjunction = %v (exact %v), the exact count is %v", got.Value, got.Exact, want.Value)
	}
}

func BenchmarkQueryErrorBounded(b *testing.B) {
	eng := demoEngine(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(
			`SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 10%`); err != nil {
			b.Fatal(err)
		}
	}
}

func TestJoinThroughPublicAPI(t *testing.T) {
	eng := demoEngine(t, 30000)
	// Dimension table: os → vendor (fits trivially in memory, §2.1).
	dim := eng.CreateTable("vendors", Col("os", String), Col("vendor", String))
	for _, r := range [][2]string{
		{"Win7", "Microsoft"}, {"OSX", "Apple"}, {"Linux", "Community"},
	} {
		if err := dim.Append(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := dim.Close(); err != nil {
		t.Fatal(err)
	}

	exact, err := eng.Query(
		`SELECT COUNT(*) FROM sessions JOIN vendors ON os = os GROUP BY vendor`)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Rows) != 3 {
		t.Fatalf("vendors = %d", len(exact.Rows))
	}
	approx, err := eng.Query(
		`SELECT COUNT(*) FROM sessions JOIN vendors ON os = os GROUP BY vendor ERROR WITHIN 15%`)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range approx.Rows {
		want := exact.Rows[i].Cells[0].Value
		got := row.Cells[0].Value
		if math.Abs(got-want)/want > 0.2 {
			t.Errorf("%s: %g vs exact %g", row.Group, got, want)
		}
	}
}

// TestJoinRepeatedKeyRefused: a join against a dimension whose join key
// repeats is refused with an error naming the table and the key — a fact
// row joins at most one dimension row — and the engine goes on answering.
func TestJoinRepeatedKeyRefused(t *testing.T) {
	eng := demoEngine(t, 5000)
	dim := eng.CreateTable("vendors", Col("os", String), Col("vendor", String))
	for _, r := range [][2]string{{"Win7", "Microsoft"}, {"OSX", "Apple"}, {"Win7", "Other"}} {
		if err := dim.Append(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := dim.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Query(`SELECT COUNT(*) FROM sessions JOIN vendors ON os = os GROUP BY vendor`)
	if err == nil || !strings.Contains(err.Error(), "join key Win7 repeats in vendors") {
		t.Fatalf("join on a repeated key: err = %v, want the key and table named", err)
	}
	res, err := eng.Query(`SELECT COUNT(*) FROM sessions`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0].Cells[0].Value != 5000 {
		t.Fatalf("the next query: %+v, %v", res, err)
	}
}

func TestMaintainEndToEnd(t *testing.T) {
	eng := demoEngine(t, 20000)
	tpl := []Template{
		{Columns: []string{"city"}, Weight: 0.7},
		{Columns: []string{"os"}, Weight: 0.3},
	}
	// First pass establishes a baseline; no priors means drift is 0 but a
	// re-solve may run (NeedsResolve is true without a baseline).
	rep, err := eng.Maintain("sessions", MaintainOptions{Templates: tpl})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Error("first pass should resolve")
	}
	// Second pass with identical data and workload: no drift, no work.
	rep, err = eng.Maintain("sessions", MaintainOptions{Templates: tpl})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resolved {
		t.Errorf("stable pass should not resolve (data drift %.3f, workload drift %.3f)",
			rep.DataDrift, rep.WorkloadDrift)
	}
	if rep.DataDrift > 0.01 || rep.WorkloadDrift > 0.01 {
		t.Errorf("unexpected drift: %.3f / %.3f", rep.DataDrift, rep.WorkloadDrift)
	}
	// Workload flip triggers a re-solve; churn limits apply.
	flipped := []Template{
		{Columns: []string{"os"}, Weight: 0.9},
		{Columns: []string{"city"}, Weight: 0.1},
	}
	rep, err = eng.Maintain("sessions", MaintainOptions{Templates: flipped})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorkloadDrift < 0.3 {
		t.Errorf("workload flip drift = %.3f", rep.WorkloadDrift)
	}
	if !rep.Resolved {
		t.Error("workload flip should trigger a re-solve")
	}
	// Errors.
	if _, err := eng.Maintain("missing", MaintainOptions{Templates: tpl}); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := eng.Maintain("sessions", MaintainOptions{}); err == nil {
		t.Error("missing templates should error")
	}
}

// TestMaintainConcurrent runs maintenance passes over one table from four
// goroutines at once (run it with -race): every pass succeeds, they leave
// one baseline behind — a further pass over the same data and workload
// finds no drift — and the engine still answers.
func TestMaintainConcurrent(t *testing.T) {
	eng := demoEngine(t, 20000)
	opts := MaintainOptions{Templates: []Template{
		{Columns: []string{"city"}, Weight: 0.7},
		{Columns: []string{"os"}, Weight: 0.3},
	}}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Maintain("sessions", opts); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	rep, err := eng.Maintain("sessions", opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resolved || rep.DataDrift > 0.01 || rep.WorkloadDrift > 0.01 {
		t.Errorf("a pass after the concurrent ones re-solved (%v) or drifted (%.3f / %.3f)", rep.Resolved, rep.DataDrift, rep.WorkloadDrift)
	}
	if _, err := eng.Query(`SELECT COUNT(*) FROM sessions WHERE city = 'NY' ERROR WITHIN 10%`); err != nil {
		t.Fatal(err)
	}
}

// stripPlanCache normalizes the plan- and result-cache outcome markers
// so results can be compared across cold (miss), warm (hit) and
// singleflight (shared) servings — the ANSWER must be bit-identical in
// every case; only the annotations differ.
func stripPlanCache(res *Result) *Result {
	cp := *res
	cp.PlanCache = ""
	cp.ResultCache = ""
	for _, marker := range []string{
		"; cache=hit", "; cache=miss",
		"; result=hit", "; result=miss", "; result=shared",
	} {
		cp.Explanation = strings.ReplaceAll(cp.Explanation, marker, "")
	}
	return &cp
}

// TestConcurrentQuerySmoke hammers one engine from many goroutines — the
// north-star workload is heavy multi-user traffic, and the catalog's
// RWMutex plus the ELP runtime's probe path had no engine-level
// concurrency coverage. Run under -race in CI; every concurrent answer
// must equal the serial one (queries are read-only and deterministic;
// with the default plan cache the serial warm-up is the miss that
// prepares each template and every concurrent replay is a hit, so
// results are compared modulo the cache=hit|miss marker).
func TestConcurrentQuerySmoke(t *testing.T) {
	eng := demoEngine(t, 20000)
	want := make([]*Result, len(demoQueries))
	for i, src := range demoQueries {
		res, err := eng.Query(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		want[i] = stripPlanCache(res)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(demoQueries))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				// Offset the query order per goroutine so different
				// queries overlap in flight.
				for k := range demoQueries {
					i := (k + g) % len(demoQueries)
					res, err := eng.Query(demoQueries[i])
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: %q: %v", g, demoQueries[i], err)
						return
					}
					if !reflect.DeepEqual(want[i], stripPlanCache(res)) {
						errs <- fmt.Errorf("goroutine %d: %q: concurrent result diverged from serial", g, demoQueries[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
