package elp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blinkdb/internal/catalog"
	"blinkdb/internal/cluster"
	"blinkdb/internal/exec"
	"blinkdb/internal/sample"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/telemetry"
	"blinkdb/internal/types"
)

var exploreDims = []struct {
	name string
	card int
}{{"city", 200}, {"os", 40}, {"browser", 60}, {"country", 80}, {"device", 25}}

var exploreGenres = []string{"drama", "news", "sports", "western"}

// newExploreFixture builds the benchmark's table in miniature: five Zipf(2)
// string dimensions, genre, dt and two floats in ~300-row columnar blocks
// (one simulated 256 MB block at Scale 1e4) striped over 100 nodes, three
// single-column stratified families plus the uniform one, and the
// engine's runtime options. No family covers a filter + group-by pair, so
// explore-shaped templates probe all four.
func newExploreFixture(t testing.TB, rows int, opt Options) *Runtime {
	t.Helper()
	cols := make([]types.Column, 0, len(exploreDims)+4)
	for _, d := range exploreDims {
		cols = append(cols, types.Column{Name: d.name, Kind: types.KindString})
	}
	cols = append(cols,
		types.Column{Name: "genre", Kind: types.KindString},
		types.Column{Name: "dt", Kind: types.KindInt},
		types.Column{Name: "sessiontime", Kind: types.KindFloat},
		types.Column{Name: "buffering", Kind: types.KindFloat})
	tab := storage.NewTable("sessions", types.NewSchema(cols...))
	b := storage.NewBuilder(tab, 300, 100, storage.InMemory)
	rng := rand.New(rand.NewSource(1))
	zipfs := make([]*rand.Zipf, len(exploreDims))
	for i, d := range exploreDims {
		zipfs[i] = rand.NewZipf(rng, 2, 1, uint64(d.card-1))
	}
	for i := 0; i < rows; i++ {
		row := make(types.Row, 0, len(cols))
		for j, d := range exploreDims {
			row = append(row, types.Str(fmt.Sprintf("%s%03d", d.name, zipfs[j].Uint64())))
		}
		g := rng.Intn(len(exploreGenres))
		row = append(row, types.Str(exploreGenres[g]), types.Int(int64(rng.Intn(1000))),
			types.Float(rng.ExpFloat64()*60*float64(1+g)), types.Float(rng.ExpFloat64()*0.8))
		b.AppendRow(row)
	}
	b.Finish()

	cat := catalog.New()
	cat.Register(tab)
	bc := sample.BuildConfig{Seed: 3, Nodes: 100, Place: storage.InMemory, RowsPerBlock: 300}
	k := int64(rows / 100)
	for _, col := range []string{"city", "browser", "country"} {
		f, err := sample.Build(tab, types.NewColumnSet(col), sample.GeometricCaps(k, 2, 4, 16), bc)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddFamily("sessions", f); err != nil {
			t.Fatal(err)
		}
	}
	uf, err := sample.BuildUniform(tab, sample.GeometricCaps(int64(rows/10), 2, 4, 16), bc)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddFamily("sessions", uf); err != nil {
		t.Fatal(err)
	}
	if opt.Scale == 0 {
		opt.Scale = 1e4
	}
	opt.ProbeOverheadOnly = true
	return New(cat, cluster.New(cluster.PaperConfig()), opt)
}

// exploreTemplates is the benchmark's template list — aggregate × filter
// column × group-by column × dt cut, 648 in all — with fixed constants and
// the workload's 2 s time bound.
func exploreTemplates() []string {
	aggs := []string{"COUNT(*)", "AVG(sessiontime)", "AVG(buffering)", "SUM(sessiontime)",
		"SUM(buffering)", "COUNT(*), AVG(sessiontime)"}
	cols := []string{"city", "os", "browser", "country", "device", "genre"}
	var out []string
	for _, agg := range aggs {
		for _, filter := range cols {
			value := filter + "001"
			if filter == "genre" {
				value = exploreGenres[1]
			}
			for _, group := range append([]string{""}, cols...) {
				if group == filter {
					continue
				}
				for _, dt := range []string{"", " AND dt < 700", " AND dt >= 300"} {
					sql := "SELECT " + agg + " FROM sessions WHERE " + filter + " = '" + value + "'" + dt
					if group != "" {
						sql += " GROUP BY " + group
					}
					out = append(out, sql+" WITHIN 2 SECONDS")
				}
			}
		}
	}
	return out
}

// sequentialSelect is the reference the concurrent selectFamily must
// match: the pre-concurrency probe loop — one candidate after another on
// the caller, executor called directly — with the same judging rules.
func sequentialSelect(rt *Runtime, entry *catalog.Entry, plan *exec.Plan, conf float64) (*sample.Family, Decision, *exec.Result, []int) {
	var dec Decision
	var best, uniform *sample.Family
	var bestRes, uniformRes *exec.Result
	bestRatio, uniformRatio := -1.0, -1.0
	var scanBlocks []int
	for _, f := range entry.Families { // ProbeAll: every family is a candidate
		blocks := plan.Prune(rt.probeView(f).Blocks())
		in := exec.FromBlocks(f.Schema(), blocks, rt.probeView(f).Cap())
		res := exec.RunParallel(plan, in, conf, 1)
		scanBlocks = append(scanBlocks, len(blocks))
		if lat := rt.latencyOfProbe(blocks); lat > dec.ProbeLatency {
			dec.ProbeLatency = lat
		}
		ratio := res.Selectivity()
		dec.Probed = append(dec.Probed, ProbeInfo{Family: f, Selectivity: ratio, Matched: res.RowsMatched})
		if ratio > bestRatio {
			bestRatio, best, bestRes = ratio, f, res
		}
		if f.IsUniform() {
			uniform, uniformRatio, uniformRes = f, ratio, res
		}
	}
	if uniform != nil && !best.IsUniform() && uniformRatio >= 0.9*bestRatio {
		best, bestRatio, bestRes = uniform, uniformRatio, uniformRes
	}
	dec.Reason = fmt.Sprintf("no covering family: probed %d families, best selectivity %.4f on %s",
		len(entry.Families), bestRatio, best.Label())
	return best, dec, bestRes, scanBlocks
}

// TestConcurrentProbesMatchSequential sweeps the 648 explore_cold-shaped
// templates: the concurrent selectFamily must reach the sequential
// reference's Decision (family, Probed order, selectivities, ProbeLatency,
// reason string) and winning probe Result bit for bit, count exactly one
// probe and one plan execution per candidate, and record the probes as
// children of one span in candidate order. Run under -race in CI.
func TestConcurrentProbesMatchSequential(t *testing.T) {
	f := newExploreFixture(t, 60000, Options{Workers: 4})
	entry, err := f.cat.Lookup("sessions")
	if err != nil {
		t.Fatal(err)
	}
	templates := exploreTemplates()
	if len(templates) != 648 {
		t.Fatalf("%d templates, want 648", len(templates))
	}
	covered := 0
	for _, src := range templates {
		q := parse(t, src)
		plan, err := exec.Compile(q, entry.Table.Schema)
		if err != nil {
			t.Fatal(err)
		}
		phi := plan.Pred.Columns().Union(types.NewColumnSet(q.GroupBy...))
		conf := f.confidenceFor(q)
		if covering := entry.CoveringFamilies(phi); len(covering) > 0 {
			// 18 of the 648 filter on a stratified column alone: no probes.
			before := f.Stats()
			fam, _, res, err := f.selectFamily(context.Background(), entry, plan, phi, conf, nil, nil)
			if d := f.Stats().Delta(before); err != nil || fam != covering[0] || res != nil || d.PlanExecs != 0 {
				t.Fatalf("%q: covered template probed (%d execs) or chose %v, err %v", src, d.PlanExecs, fam, err)
			}
			covered++
			continue
		}
		wantFam, wantDec, wantRes, wantBlocks := sequentialSelect(f, entry, plan, conf)

		before := f.Stats()
		tr := telemetry.New("select")
		fam, dec, res, err := f.selectFamily(context.Background(), entry, plan, phi, conf, nil, tr.Root())
		tr.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if fam != wantFam || !reflect.DeepEqual(dec, wantDec) {
			t.Fatalf("%q: decision diverged from the sequential reference\nwant %s %+v\ngot  %s %+v",
				src, wantFam.Label(), wantDec, fam.Label(), dec)
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("%q: winning probe result diverged\nwant %+v\ngot  %+v", src, wantRes, res)
		}
		d := f.Stats().Delta(before)
		if n := int64(len(entry.Families)); d.ProbeExecs != n || d.PlanExecs != n {
			t.Fatalf("%q: %d probe / %d plan execs for %d candidates", src, d.ProbeExecs, d.PlanExecs, n)
		}
		kids := tr.Root().Children()
		if len(kids) != 1 || kids[0].Name() != fmt.Sprintf("probe candidates=%d", len(entry.Families)) {
			t.Fatalf("%q: probes are not under one span:\n%s", src, tr.Render())
		}
		probes := kids[0].Children()
		if len(probes) != len(entry.Families) {
			t.Fatalf("%q: %d probe spans for %d candidates:\n%s", src, len(probes), len(entry.Families), tr.Render())
		}
		for i, fam := range entry.Families {
			scans := probes[i].Children()
			if probes[i].Name() != "probe "+fam.Label() || len(scans) != 1 ||
				scans[0].Name() != fmt.Sprintf("scan blocks=%d", wantBlocks[i]) {
				t.Fatalf("%q: probe span %d is not candidate %s scanning %d blocks:\n%s",
					src, i, fam.Label(), wantBlocks[i], tr.Render())
			}
		}
	}
	if covered != 18 {
		t.Errorf("%d covered templates, want 18: the sweep is not the benchmark's mix", covered)
	}
}

// TestConcurrentProbesWholePipeline runs every template through Run on
// two runtimes that differ only in the scan pool: concurrent probes with
// concurrent scans inside them must not move a single bit of a Response.
func TestConcurrentProbesWholePipeline(t *testing.T) {
	one := newExploreFixture(t, 60000, Options{Workers: 1})
	many := newExploreFixture(t, 60000, Options{Workers: 8, PlanCacheSize: 256, ResultCacheSize: 1024})
	for _, src := range exploreTemplates() {
		want, err := one.Run(parse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		got, err := many.Run(parse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Result, got.Result) || want.SimLatency != got.SimLatency ||
			len(want.Decisions) != 1 || len(got.Decisions) != 1 ||
			want.Decisions[0].View.Level != got.Decisions[0].View.Level ||
			want.Decisions[0].View.Family.Label() != got.Decisions[0].View.Family.Label() ||
			!strings.HasPrefix(got.Decisions[0].Reason, want.Decisions[0].Reason) {
			t.Fatalf("%q: responses diverged\nwant %+v %+v\ngot  %+v %+v", src, want.Result, want.Decisions, got.Result, got.Decisions)
		}
	}
}

// countdownCtx is a context that cancels itself at its n-th Err() check:
// a deterministic "cancelled mid-probe", wherever in the pipeline check n
// happens to sit.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// waitGoroutines polls until the goroutine count is back at the baseline:
// gather waits for its probes, but a goroutine that has called Done is
// still counted for the instant it takes to exit.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestProbeCancellation cancels a cold, probing query at every successive
// context check: the query returns either context.Canceled or the
// complete answer — never a partial one — leaves no goroutine behind, and
// never caches a half-prepared template: a cancel during the probes
// caches nothing, and a cancel after them (during the final read) leaves a
// PreparedQuery that answers exactly like an uncancelled one.
func TestProbeCancellation(t *testing.T) {
	f := newExploreFixture(t, 60000, Options{Workers: 2, PlanCacheSize: 16, ResultCacheSize: 16})
	const src = `SELECT COUNT(*), AVG(sessiontime) FROM sessions WHERE os = 'os001' AND dt < 700 GROUP BY device WITHIN 2 SECONDS`
	ref := newExploreFixture(t, 60000, Options{Workers: 2})
	want, err := ref.Run(parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	key, _ := sqlparser.Normalize(parse(t, src))
	baseline := runtime.NumGoroutine()
	midProbe, afterProbe := 0, 0
	for checks := int64(0); ; checks++ {
		if checks > 200 {
			t.Fatal("query still cancelling after 200 context checks")
		}
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(checks)
		before := f.Stats()
		resp, err := f.RunCtxTraced(ctx, parse(t, src), nil)
		waitGoroutines(t, baseline)
		d := f.Stats().Delta(before)
		if err == nil {
			if resp.Cache != "miss" || !reflect.DeepEqual(resp.Result, want.Result) {
				t.Fatalf("cancel at check %d: completed warm (%q) or with a different answer", checks, resp.Cache)
			}
			break
		}
		if !errors.Is(err, context.Canceled) || resp != nil {
			t.Fatalf("cancel at check %d: resp=%v err=%v, want nil and context.Canceled", checks, resp, err)
		}
		if d.Cancelled != 1 || f.results.Len() != 0 {
			t.Fatalf("cancel at check %d: Cancelled moved by %d, %d results cached", checks, d.Cancelled, f.results.Len())
		}
		pq, cached := f.cache.Get(key)
		switch {
		case !cached && d.ProbeExecs > 0:
			midProbe++
		case cached:
			// Cancelled during the final read: the template was fully
			// prepared first, so it must serve the reference answer.
			afterProbe++
			got, err := f.Execute(pq, parse(t, src))
			if err != nil || len(pq.disjuncts) != 1 || len(pq.disjuncts[0].famDec.Probed) != 4 ||
				!reflect.DeepEqual(got.Result, want.Result) {
				t.Fatalf("cancel at check %d: cached a template that does not answer like a clean one (err %v)", checks, err)
			}
			// Keep every pass cold.
			f.cache.Sweep(func(string, *PreparedQuery) bool { return false })
		}
	}
	if midProbe == 0 || afterProbe == 0 {
		t.Errorf("sweep cancelled %d times mid-probe and %d times after the probes; want both", midProbe, afterProbe)
	}
}

// TestGatherErrorOrder: an error from candidate k is the one reported even
// when candidate k+1 failed first, every candidate runs to completion
// either way, and a clean sweep reports nil.
func TestGatherErrorOrder(t *testing.T) {
	errK, errNext := errors.New("candidate 1"), errors.New("candidate 2")
	for trial := 0; trial < 50; trial++ {
		nextDone := make(chan struct{})
		var ran atomic.Int64
		err := gather(4, func(i int) error {
			defer ran.Add(1)
			switch i {
			case 1:
				<-nextDone // candidate 2 has already failed
				return errK
			case 2:
				defer close(nextDone)
				return errNext
			}
			return nil
		})
		if err != errK {
			t.Fatalf("gather reported %v, want the lowest-index error %v", err, errK)
		}
		if ran.Load() != 4 {
			t.Fatalf("gather returned with %d of 4 candidates finished", ran.Load())
		}
	}
	if err := gather(1, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// The last candidate runs on the caller: same rule when it is the one
	// that fails first.
	callerDone := make(chan struct{})
	err := gather(3, func(i int) error {
		if i == 2 {
			defer close(callerDone)
			return errNext
		}
		<-callerDone
		if i == 1 {
			return errK
		}
		return nil
	})
	if err != errK {
		t.Fatalf("gather reported %v, want %v", err, errK)
	}
}

// TestProbeOncePerFamilyView is the double-probe regression test: one
// bounded query must execute at most one plan run per (family, view).
// Before the fix, selectFamily probed every candidate's smallest sample
// and selectResolution re-ran the identical probe on the winner; with
// delta reuse the final read then re-executed the same view a third time.
func TestProbeOncePerFamilyView(t *testing.T) {
	f := newFixture(t, 30000, Options{})

	// No covering family: φ = {genre} intersects neither [city] nor
	// [os,url], so all 3 families (2 stratified + uniform) are probed.
	// The loose bound keeps the chosen level at the probe level, so the
	// probe answer doubles as the final answer: exactly 3 executions.
	before := f.rt.Stats()
	resp, err := f.rt.Run(parse(t, `SELECT COUNT(*) FROM sessions WHERE genre = 'western' ERROR WITHIN 25%`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Decisions[0].UsedBase {
		t.Fatal("25% bound should be satisfiable from samples")
	}
	after := f.rt.Stats()
	if got, probed := after.PlanExecs-before.PlanExecs, len(resp.Decisions[0].Probed); got != int64(probed) {
		t.Errorf("probe path ran the executor %d times for %d probed families; each (family, view) must execute at most once",
			got, probed)
	}
	if got := after.ProbeExecs - before.ProbeExecs; got != int64(len(resp.Decisions[0].Probed)) {
		t.Errorf("Stats.ProbeExecs advanced by %d, want %d", got, len(resp.Decisions[0].Probed))
	}

	// Covering family: no selectFamily probes; selectResolution runs the
	// one probe and the final answer reuses it — exactly 1 execution.
	before = f.rt.Stats()
	resp, err = f.rt.Run(parse(t, `SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 25%`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Decisions[0].UsedBase {
		t.Fatal("25% bound should be satisfiable from samples")
	}
	chosen := resp.Decisions[0].View.Level
	want := int64(1)
	if pv := f.rt.probeView(resp.Decisions[0].View.Family); chosen != pv.Level {
		want = 2 // final read on a strictly larger view is a new (family, view)
	}
	if got := f.rt.Stats().PlanExecs - before.PlanExecs; got != want {
		t.Errorf("covering path ran the executor %d times, want %d", got, want)
	}
}

// TestUniformFamilyReasonLabel pins the EXPLAIN fix: when the winning
// probed family is the uniform one, Reason names it "uniform" instead of
// formatting its empty column set.
func TestUniformFamilyReasonLabel(t *testing.T) {
	// A catalog with ONLY a uniform family forces the probe path (a
	// filtered query has non-empty φ and nothing covers it) and a uniform
	// winner.
	f := newFixture(t, 20000, Options{})
	cat := catalog.New()
	cat.Register(f.tab)
	uf, err := sample.BuildUniform(f.tab, sample.GeometricCaps(4000, 4, 4, 16),
		sample.BuildConfig{Seed: 3, Nodes: 100, Place: storage.InMemory, RowsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddFamily("sessions", uf); err != nil {
		t.Fatal(err)
	}
	rt := New(cat, cluster.New(cluster.PaperConfig()), Options{})
	resp, err := rt.Run(parse(t, `SELECT COUNT(*) FROM sessions WHERE genre = 'drama' ERROR WITHIN 25%`))
	if err != nil {
		t.Fatal(err)
	}
	reason := resp.Decisions[0].Reason
	if !strings.Contains(reason, "on uniform") {
		t.Errorf("Reason = %q, want the uniform family named explicitly", reason)
	}
	// And Label keeps stratified families as their column sets.
	if got := uf.Label(); got != "uniform" {
		t.Errorf("Label(uniform) = %q", got)
	}
	strat, err := sample.Build(f.tab, types.NewColumnSet("city"), sample.GeometricCaps(512, 4, 2, 8),
		sample.BuildConfig{Seed: 3, Nodes: 100, Place: storage.InMemory, RowsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := strat.Label(); got != strat.Phi.String() || got == "uniform" {
		t.Errorf("Label(stratified) = %q", got)
	}
}
