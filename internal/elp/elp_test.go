package elp

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"blinkdb/internal/catalog"
	"blinkdb/internal/cluster"
	"blinkdb/internal/exec"
	"blinkdb/internal/sample"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/telemetry"
	"blinkdb/internal/types"
	"blinkdb/internal/zipf"
)

// fixture builds a skewed sessions table with stratified families on
// [city] and [os,url] plus a uniform family, registered in a catalog.
type fixture struct {
	cat   *catalog.Catalog
	clus  *cluster.Cluster
	tab   *storage.Table
	rt    *Runtime
	truth map[string]float64 // city -> true AVG(time)
}

func newFixture(t testing.TB, rows int, opt Options) *fixture {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "os", Kind: types.KindString},
		types.Column{Name: "url", Kind: types.KindString},
		types.Column{Name: "genre", Kind: types.KindString},
		types.Column{Name: "time", Kind: types.KindFloat},
	)
	tab := storage.NewTable("sessions", schema)
	b := storage.NewBuilder(tab, 256, 100, storage.InMemory)
	rng := rand.New(rand.NewSource(77))
	cityGen := zipf.NewGeneratorCDF(rng, 1.4, 200)
	oses := []string{"Win7", "OSX", "Linux", "iOS"}
	urls := []string{"cnn.com", "yahoo.com", "bing.com", "nyt.com", "bbc.com"}
	genres := []string{"western", "drama", "comedy"}
	sums := map[string]float64{}
	counts := map[string]float64{}
	for i := 0; i < rows; i++ {
		city := "city" + itoa(cityGen.Next())
		v := rng.ExpFloat64() * 40
		sums[city] += v
		counts[city]++
		b.AppendRow(types.Row{
			types.Str(city),
			types.Str(oses[rng.Intn(len(oses))]),
			types.Str(urls[zipfIdx(rng, len(urls))]),
			types.Str(genres[rng.Intn(len(genres))]),
			types.Float(v),
		})
	}
	b.Finish()

	cat := catalog.New()
	cat.Register(tab)
	caps := sample.GeometricCaps(2000, 4, 4, 8)
	bc := sample.BuildConfig{Seed: 3, Nodes: 100, Place: storage.InMemory, RowsPerBlock: 64}
	for _, phi := range []types.ColumnSet{
		types.NewColumnSet("city"),
		types.NewColumnSet("os", "url"),
	} {
		f, err := sample.Build(tab, phi, caps, bc)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddFamily("sessions", f); err != nil {
			t.Fatal(err)
		}
	}
	uf, err := sample.BuildUniform(tab, sample.GeometricCaps(int64(rows/5), 4, 4, 16), bc)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddFamily("sessions", uf); err != nil {
		t.Fatal(err)
	}

	clus := cluster.New(cluster.PaperConfig())
	truth := map[string]float64{}
	for c, s := range sums {
		truth[c] = s / counts[c]
	}
	return &fixture{
		cat: cat, clus: clus, tab: tab,
		rt:    New(cat, clus, opt),
		truth: truth,
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d []byte
	for n > 0 {
		d = append([]byte{byte('0' + n%10)}, d...)
		n /= 10
	}
	return string(d)
}

func zipfIdx(rng *rand.Rand, n int) int {
	// Cheap skew for URL: square a uniform draw.
	u := rng.Float64()
	return int(u * u * float64(n))
}

func parse(t testing.TB, src string) *sqlparser.Query {
	t.Helper()
	q, err := sqlparser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// answer runs q as one untraced query.
func answer(rt *Runtime, q *sqlparser.Query) (*Response, error) {
	return answerTraced(context.Background(), rt, q, nil)
}

// answerTraced runs q as one query under ctx, recording into tr (nil:
// untraced).
func answerTraced(ctx context.Context, rt *Runtime, q *sqlparser.Query, tr *telemetry.Trace) (*Response, error) {
	return runQuery(ctx, rt, q, tr, nil)
}

// runQuery drives Run as a caller that owns the query does: normalize under
// a "normalize" span, Run, and read a shared result-cache hit under a
// "materialize" span — here as a struct copy without its entry, so that it
// compares with executed answers.
func runQuery(ctx context.Context, rt *Runtime, q *sqlparser.Query, tr *telemetry.Trace, emit func(*Response, int) error) (*Response, error) {
	nsp := tr.Root().Child("normalize")
	key, params := sqlparser.Normalize(q)
	nsp.End()
	resp, err := rt.Run(ctx, q, key, params, tr, emit)
	if err != nil || !resp.Shared() {
		return resp, err
	}
	msp := tr.Root().Child("materialize")
	defer msp.End()
	cp := *resp
	cp.ent = nil
	return &cp, nil
}

func TestUnboundedQueryIsExact(t *testing.T) {
	f := newFixture(t, 30000, Options{})
	resp, err := answer(f.rt, parse(t, `SELECT COUNT(*) FROM sessions`))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Decisions[0].UsedBase {
		t.Error("unbounded query should run on base table")
	}
	if got := resp.Result.Groups[0].Estimates[0].Point; got != 30000 {
		t.Errorf("count = %g", got)
	}
	if !resp.Result.Groups[0].Estimates[0].Exact {
		t.Error("base-table count should be exact")
	}
}

func TestCoveringFamilySelected(t *testing.T) {
	f := newFixture(t, 30000, Options{})
	resp, err := answer(f.rt, parse(t,
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 5% AT CONFIDENCE 95%`))
	if err != nil {
		t.Fatal(err)
	}
	d := resp.Decisions[0]
	if d.UsedBase {
		t.Fatal("should use a sample")
	}
	if d.View.Family.Phi.Key() != "city" {
		t.Errorf("family = %s, want [city]", d.View.Family.Phi)
	}
	if !strings.Contains(d.Reason, "covering family") {
		t.Errorf("reason = %q", d.Reason)
	}
	if len(d.Probed) != 0 {
		t.Error("covering path should not probe all families")
	}
}

func TestProbingPathWhenNoCoveringFamily(t *testing.T) {
	f := newFixture(t, 30000, Options{})
	// φ = {city, genre}: no covering family (families are [city],
	// [os,url]); runtime must probe.
	resp, err := answer(f.rt, parse(t,
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' AND genre = 'western' ERROR WITHIN 10%`))
	if err != nil {
		t.Fatal(err)
	}
	d := resp.Decisions[0]
	if len(d.Probed) != 3 {
		t.Fatalf("should probe all 3 families, probed %d", len(d.Probed))
	}
	if d.UsedBase {
		t.Error("should pick a sample family")
	}
	// The paper's rule: pick the probed family with the highest
	// matched/read ratio — refined by the uniform tie-break (a uniform
	// family within 10% of the best ratio wins on estimator variance).
	best := -1.0
	for _, pi := range d.Probed {
		if pi.Selectivity > best {
			best = pi.Selectivity
		}
	}
	var pickedSel float64
	for _, pi := range d.Probed {
		if pi.Family == d.View.Family {
			pickedSel = pi.Selectivity
		}
	}
	if pickedSel < 0.9*best {
		t.Errorf("picked family selectivity %g below tie-break band of max %g", pickedSel, best)
	}
}

func TestErrorBoundMet(t *testing.T) {
	f := newFixture(t, 60000, Options{})
	resp, err := answer(f.rt, parse(t,
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 5% AT CONFIDENCE 95%`))
	if err != nil {
		t.Fatal(err)
	}
	re := 0.0
	for _, g := range resp.Result.Groups {
		for _, e := range g.Estimates {
			re = math.Max(re, e.RelErr())
		}
	}
	if re > 0.05*1.5 { // small slack: the bound is met in expectation
		t.Errorf("relative error %.4f exceeds requested 5%% (with slack)", re)
	}
	// Estimate must be close to the truth.
	got := resp.Result.Groups[0].Estimates[0]
	want := f.truth["city1"]
	if math.Abs(got.Point-want)/want > 0.10 {
		t.Errorf("AVG estimate %.2f vs truth %.2f", got.Point, want)
	}
}

func TestTighterErrorUsesBiggerSample(t *testing.T) {
	f := newFixture(t, 60000, Options{})
	loose, err := answer(f.rt, parse(t,
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 20%`))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := answer(f.rt, parse(t,
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 1%`))
	if err != nil {
		t.Fatal(err)
	}
	// A 1%% bound may exceed what the largest sample offers, in which
	// case the runtime correctly falls back to exact base-table execution
	// (maximum accuracy). Otherwise it must pick a level ≥ the loose one.
	if !tight.Decisions[0].UsedBase &&
		tight.Decisions[0].View.Level < loose.Decisions[0].View.Level {
		t.Errorf("tighter bound picked smaller sample: %d vs %d",
			tight.Decisions[0].View.Level, loose.Decisions[0].View.Level)
	}
	if tight.SimLatency < loose.SimLatency {
		t.Errorf("tighter bound should not be faster: %g vs %g",
			tight.SimLatency, loose.SimLatency)
	}
}

func TestTimeBoundRespected(t *testing.T) {
	f := newFixture(t, 60000, Options{Scale: 2e4}) // pretend TB-scale
	for _, budget := range []float64{1, 2, 5, 10} {
		resp, err := answer(f.rt, parse(t,
			`SELECT AVG(time) FROM sessions WHERE city = 'city1' GROUP BY os WITHIN `+
				itoa(int(budget))+` SECONDS`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.SimLatency > budget*1.05 {
			t.Errorf("budget %gs: simulated latency %.2fs", budget, resp.SimLatency)
		}
	}
}

func TestLargerTimeBudgetMoreAccurate(t *testing.T) {
	f := newFixture(t, 60000, Options{Scale: 2e4})
	fast, err := answer(f.rt, parse(t,
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' WITHIN 1 SECONDS`))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := answer(f.rt, parse(t,
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' WITHIN 10 SECONDS`))
	if err != nil {
		t.Fatal(err)
	}
	if slow.Decisions[0].View.Level < fast.Decisions[0].View.Level {
		t.Errorf("more time should not shrink the sample: %d vs %d",
			slow.Decisions[0].View.Level, fast.Decisions[0].View.Level)
	}
}

func TestBothBoundsTimeWins(t *testing.T) {
	f := newFixture(t, 60000, Options{Scale: 2e4})
	// 0.1% error needs a huge sample; 1 second does not allow it. Time
	// must win (paper: most accurate answer within the time bound).
	resp, err := answer(f.rt, parse(t,
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 0.1% WITHIN 1 SECONDS`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.SimLatency > 1.05 {
		t.Errorf("time bound violated: %.2fs", resp.SimLatency)
	}
}

func TestDisjunctionRewrite(t *testing.T) {
	f := newFixture(t, 30000, Options{})
	resp, err := answer(f.rt, parse(t,
		`SELECT COUNT(*) FROM sessions WHERE city = 'city1' OR os = 'Win7' ERROR WITHIN 10%`))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Decisions) != 2 {
		t.Fatalf("disjunction should yield 2 decisions, got %d", len(resp.Decisions))
	}
	// Each disjunct picks its own family: [city] and [os,url].
	fams := map[string]bool{}
	for _, d := range resp.Decisions {
		fams[d.View.Family.Phi.Key()] = true
	}
	if !fams["city"] || !fams["os,url"] {
		t.Errorf("disjunct families = %v", fams)
	}
}

func TestGroupByRareSubgroupsPresent(t *testing.T) {
	// Stratified sample on city guarantees rare cities appear in output
	// (no subset error), unlike a uniform sample of the same size.
	f := newFixture(t, 60000, Options{})
	resp, err := answer(f.rt, parse(t,
		`SELECT COUNT(*) FROM sessions GROUP BY city ERROR WITHIN 10%`))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := answer(f.rt, parse(t, `SELECT COUNT(*) FROM sessions GROUP BY city`))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Groups) != len(exact.Result.Groups) {
		t.Errorf("stratified groups = %d, exact groups = %d (missing subgroups)",
			len(resp.Result.Groups), len(exact.Result.Groups))
	}
}

// TestDeltaReuseCheaperThanFullRead: §4.4 — a read past the probe's
// resolution is priced as the delta blocks the probe did not read, which
// costs less than reading the chosen view whole.
func TestDeltaReuseCheaperThanFullRead(t *testing.T) {
	f := newFixture(t, 30000, Options{Scale: 2e4})
	q := parse(t, `SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 5%`)
	r, err := answer(f.rt, q)
	if err != nil {
		t.Fatal(err)
	}
	d := r.Decisions[0]
	if d.UsedBase {
		t.Fatal("5% bound should be satisfiable from samples")
	}
	if d.View.Level == f.rt.probeView(d.View.Family).Level {
		t.Skip("probe level chosen; no delta to reuse")
	}
	plan, err := exec.Compile(q, f.tab.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if full := f.rt.latencyOf(plan.Prune(d.View.Blocks())); d.ReadLatency >= full {
		t.Errorf("delta reuse should be cheaper: %g vs %g", d.ReadLatency, full)
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	f := newFixture(t, 1000, Options{})
	if _, err := answer(f.rt, parse(t, `SELECT COUNT(*) FROM nope ERROR WITHIN 5%`)); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := answer(f.rt, parse(t, `SELECT COUNT(*) FROM sessions WHERE bogus = 1 ERROR WITHIN 5%`)); err == nil {
		t.Error("unknown column should error")
	}
}

func TestNoFamiliesFallsBackToBase(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "x", Kind: types.KindInt})
	tab := storage.NewTable("bare", schema)
	b := storage.NewBuilder(tab, 8, 1, storage.OnDisk)
	for i := 0; i < 100; i++ {
		b.AppendRow(types.Row{types.Int(int64(i))})
	}
	b.Finish()
	cat := catalog.New()
	cat.Register(tab)
	rt := New(cat, cluster.New(cluster.PaperConfig()), Options{})
	resp, err := answer(rt, parse(t, `SELECT SUM(x) FROM bare ERROR WITHIN 5%`))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Decisions[0].UsedBase {
		t.Error("should fall back to base table")
	}
	if got := resp.Result.Groups[0].Estimates[0].Point; got != 4950 {
		t.Errorf("sum = %g", got)
	}
}

func BenchmarkRunErrorBounded(b *testing.B) {
	f := newFixture(b, 60000, Options{})
	q := parse(b, `SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 5%`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := answer(f.rt, q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWorkerEquivalenceELP pins the runtime sample-selection contract at
// the ELP layer: fixtures differing only in the scan pool must probe the
// same families, choose the same resolutions, pay the same simulated
// latencies and return bit-identical estimates for every bounded-query
// shape (disjunctions, exact queries and explicit confidence included).
func TestWorkerEquivalenceELP(t *testing.T) {
	queries := []string{
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 5%`,
		`SELECT COUNT(*) FROM sessions WHERE os = 'Linux' GROUP BY city WITHIN 2 SECONDS`,
		`SELECT SUM(time), MEDIAN(time) FROM sessions WHERE city = 'city1' OR os = 'OSX' ERROR WITHIN 10%`,
		`SELECT AVG(time) FROM sessions GROUP BY genre`,
		`SELECT COUNT(*) FROM sessions WHERE url = 'cnn.com' ERROR WITHIN 20% AT CONFIDENCE 90%`,
	}
	one := newFixture(t, 20000, Options{Workers: 1})
	four := newFixture(t, 20000, Options{Workers: 4})
	for _, src := range queries {
		want, err := answer(one.rt, parse(t, src))
		if err != nil {
			t.Fatalf("%q (1 worker): %v", src, err)
		}
		got, err := answer(four.rt, parse(t, src))
		if err != nil {
			t.Fatalf("%q (4 workers): %v", src, err)
		}
		if !reflect.DeepEqual(want.Result, got.Result) {
			t.Errorf("%q: estimates diverged across worker counts\n1 %+v\n4 %+v", src, want.Result, got.Result)
		}
		if want.SimLatency != got.SimLatency || want.Confidence != got.Confidence {
			t.Errorf("%q: latency/confidence diverged: %g/%g vs %g/%g",
				src, want.SimLatency, want.Confidence, got.SimLatency, got.Confidence)
		}
		if len(want.Decisions) != len(got.Decisions) {
			t.Fatalf("%q: decision counts diverged", src)
		}
		for i := range want.Decisions {
			a, b := want.Decisions[i], got.Decisions[i]
			if a.UsedBase != b.UsedBase || a.Reason != b.Reason ||
				a.View.Level != b.View.Level ||
				a.ProbeLatency != b.ProbeLatency || a.ReadLatency != b.ReadLatency ||
				a.RequiredRows != b.RequiredRows {
				t.Errorf("%q decision %d diverged across worker counts:\n1 %+v\n4 %+v", src, i, a, b)
			}
		}
	}
}
