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

// argmaxFamily is §4.1.1's judging rule, restated: the candidate with the
// highest matched/read ratio (the first, on ties), unless the uniform
// family's ratio is within 10% of it.
func argmaxFamily(probed []ProbeInfo) (*sample.Family, float64) {
	var best, uniform *sample.Family
	bestRatio, uniformRatio := -1.0, -1.0
	for _, p := range probed {
		if p.Selectivity > bestRatio {
			best, bestRatio = p.Family, p.Selectivity
		}
		if p.Family.IsUniform() {
			uniform, uniformRatio = p.Family, p.Selectivity
		}
	}
	if uniform != nil && !best.IsUniform() && uniformRatio >= 0.9*bestRatio {
		return uniform, uniformRatio
	}
	return best, bestRatio
}

// sequentialSelect is the reference selectFamily must match: the probe
// loop as first written — one candidate after another on the caller, the
// FULL plan on every one, executor called directly — with the same judging
// rules. What selectFamily reads off its count passes, and what it returns
// for the winner, must be what this reads off full-plan Results.
func sequentialSelect(rt *Runtime, entry *catalog.Entry, plan *exec.Plan, conf float64) (*sample.Family, Decision, *exec.Result, []int) {
	var dec Decision
	results := map[*sample.Family]*exec.Result{}
	var scanBlocks []int
	for _, f := range entry.Families { // §4.1.1: every family is a candidate
		in := exec.FromView(rt.probeView(f)).Pruned(plan)
		res := exec.RunParallel(plan, in, conf, 1)
		results[f] = res
		scanBlocks = append(scanBlocks, len(in.Blocks))
		lat := rt.latencyOf(in.Blocks)
		if len(in.Blocks) > 0 {
			lat = cluster.BlinkDBEngine.JobOverheadSec
		}
		if lat > dec.ProbeLatency {
			dec.ProbeLatency = lat
		}
		dec.Probed = append(dec.Probed, ProbeInfo{Family: f, Selectivity: countsOf(res).Selectivity(), Matched: res.RowsMatched})
	}
	best, bestRatio := argmaxFamily(dec.Probed)
	dec.Reason = fmt.Sprintf("no covering family: probed %d families, best selectivity %.4f on %s",
		len(entry.Families), bestRatio, best.Label())
	return best, dec, results[best], scanBlocks
}

// TestConcurrentProbesMatchSequential sweeps the 648 explore_cold-shaped
// templates: the count-only selectFamily must reach the
// sequential full-plan reference's Decision (family, Probed order,
// selectivities, ProbeLatency, reason string) and winning probe Result bit
// for bit, keep a chain that, extended by the next resolution, answers as
// a fresh scan of it does, count exactly one execution per candidate (the
// count passes) plus one (the plan, on the winner), and record them as
// children of one span: the count passes in candidate order, then the
// winner's full pass.
// Run under -race in CI.
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
	covered, extended := 0, 0
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
			fam, _, res, chain, err := f.selectFamily(context.Background(), entry, plan, phi, conf, nil, nil)
			if d := f.Stats().Delta(before); err != nil || fam != covering[0] || res != nil || chain != nil || d.PlanExecs != 0 {
				t.Fatalf("%q: covered template probed (%d execs) or chose %v, err %v", src, d.PlanExecs, fam, err)
			}
			covered++
			continue
		}
		wantFam, wantDec, wantRes, wantBlocks := sequentialSelect(f, entry, plan, conf)

		before := f.Stats()
		tr := telemetry.New("select")
		fam, dec, res, chain, err := f.selectFamily(context.Background(), entry, plan, phi, conf, nil, tr.Root())
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
		if n := int64(len(entry.Families)); d.ProbeExecs != n+1 || d.PlanExecs != n+1 {
			t.Fatalf("%q: %d probe / %d plan execs for %d candidates, want one count pass each and one full pass",
				src, d.ProbeExecs, d.PlanExecs, n)
		}
		kids := tr.Root().Children()
		if len(kids) != 1 || kids[0].Name() != fmt.Sprintf("probe candidates=%d", len(entry.Families)) {
			t.Fatalf("%q: probes are not under one span:\n%s", src, tr.Render())
		}
		probes := kids[0].Children()
		if len(probes) != len(entry.Families)+1 {
			t.Fatalf("%q: %d probe spans for %d candidates and a winner:\n%s", src, len(probes), len(entry.Families), tr.Render())
		}
		for i, span := range probes {
			name, blocks := "probe "+wantFam.Label()+" full", 0
			for ci, cand := range entry.Families {
				switch {
				case i == ci:
					name, blocks = "probe "+cand.Label(), wantBlocks[ci]
				case i == len(entry.Families) && cand == wantFam:
					blocks = wantBlocks[ci]
				}
			}
			scans := span.Children()
			if span.Name() != name || len(scans) != 1 || scans[0].Name() != fmt.Sprintf("scan blocks=%d", blocks) {
				t.Fatalf("%q: probe span %d is not %q scanning %d blocks:\n%s", src, i, name, blocks, tr.Render())
			}
		}
		// The chain the template keeps must hold exactly the probe's view:
		// the runtime's next step, extending it by the next resolution,
		// answers as a fresh scan of that resolution does.
		if next := chain.Level() + 1; next < fam.Resolutions() {
			v := fam.View(next)
			got, err := chain.Extend(context.Background(), exec.FromDelta(v, chain.Level()).Pruned(plan), conf, f.opt.Workers, nil)
			if want := exec.RunParallel(plan, viewInput(v, plan), conf, 1); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: the kept chain extended to %s diverged (err %v)\nwant %+v\ngot  %+v", src, v, err, want, got)
			}
			extended++
		}
	}
	if extended == 0 {
		t.Error("no kept chain had a next resolution to extend by")
	}
	if covered != 18 {
		t.Errorf("%d covered templates, want 18: the sweep is not the benchmark's mix", covered)
	}
}

// TestCountProbesDecideLikeFullProbes is decision identity, one layer up
// from selectFamily: over the explore templates on the Zipf-skewed fixture —
// time-bounded as the workload sends them, every fifth error-bounded on a
// rare value so the §4.2 escalation runs too — a prepared template's Probed entries are what a
// full-plan run on each candidate's probe view reports, its family is the
// argmax of those ratios under the 0.9 uniform tie-break, and the probe
// Result it keeps is DeepEqual to the full plan run on its probe view.
func TestCountProbesDecideLikeFullProbes(t *testing.T) {
	f := newExploreFixture(t, 60000, Options{Workers: 3})
	entry, err := f.cat.Lookup("sessions")
	if err != nil {
		t.Fatal(err)
	}
	stratifiedWins, uniformWins, escalated := 0, 0, 0
	for ti, src := range exploreTemplates() {
		if ti%5 == 0 {
			src = strings.Replace(src, "WITHIN 2 SECONDS", "ERROR WITHIN 10% AT CONFIDENCE 95%", 1)
			src = strings.Replace(src, "001'", "019'", 1)
		}
		q := parse(t, src)
		key, params := sqlparser.Normalize(q)
		pq, err := f.prepare(context.Background(), q, key, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pq.disjuncts) != 1 {
			t.Fatalf("%q: %d disjuncts", src, len(pq.disjuncts))
		}
		pd := pq.disjuncts[0]
		if len(pd.famDec.Probed) == 0 {
			continue // a covering family: nothing was compared
		}
		plan, err := exec.Compile(q, entry.Table.Schema)
		if err != nil {
			t.Fatal(err)
		}
		conf := f.confidenceFor(q)
		full := func(v sample.View) *exec.Result { return exec.RunParallel(plan, viewInput(v, plan), conf, 1) }

		if len(pd.famDec.Probed) != len(entry.Families) {
			t.Fatalf("%q: probed %d of %d families", src, len(pd.famDec.Probed), len(entry.Families))
		}
		for i, got := range pd.famDec.Probed {
			want := full(f.probeView(entry.Families[i]))
			if got.Family != entry.Families[i] || got.Selectivity != countsOf(want).Selectivity() || got.Matched != want.RowsMatched {
				t.Fatalf("%q: Probed[%d] = %s %v/%d, the full plan on its probe view reports %s %v/%d", src, i,
					got.Family.Label(), got.Selectivity, got.Matched, entry.Families[i].Label(), countsOf(want).Selectivity(), want.RowsMatched)
			}
		}
		best, _ := argmaxFamily(pd.famDec.Probed)
		if pd.fam != best || pd.pv.Family != best {
			t.Fatalf("%q: chose %s, the argmax under the uniform tie-break is %s", src, pd.fam.Label(), best.Label())
		}
		if want := full(pd.pv); !reflect.DeepEqual(pd.probe, want) {
			t.Fatalf("%q: prepared probe is not the full plan's run on %s\nwant %+v\ngot  %+v", src, pd.pv, want, pd.probe)
		}
		switch {
		case pd.pv.Level != f.probeView(best).Level:
			escalated++
		case best.IsUniform():
			uniformWins++
		default:
			stratifiedWins++
		}
	}
	if stratifiedWins == 0 || uniformWins == 0 || escalated == 0 {
		t.Errorf("sweep saw %d stratified winners, %d uniform winners and %d escalated probes; want some of each",
			stratifiedWins, uniformWins, escalated)
	}
}

// TestConcurrentProbesWholePipeline runs every template through Run on
// two runtimes that differ only in the scan pool: concurrent scans must
// not move a single bit of a Response.
func TestConcurrentProbesWholePipeline(t *testing.T) {
	one := newExploreFixture(t, 60000, Options{Workers: 1})
	many := newExploreFixture(t, 60000, Options{Workers: 8, PlanCacheSize: 256, ResultCacheSize: 1024})
	for _, src := range exploreTemplates() {
		want, err := answer(one, parse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		got, err := answer(many, parse(t, src))
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
// a scan waits for its workers, but a goroutine that has called Done is
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
// prepared template that answers exactly like an uncancelled one.
func TestProbeCancellation(t *testing.T) {
	f := newExploreFixture(t, 60000, Options{Workers: 2, PlanCacheSize: 16, ResultCacheSize: 16})
	const src = `SELECT COUNT(*), AVG(sessiontime) FROM sessions WHERE os = 'os001' AND dt < 700 GROUP BY device WITHIN 2 SECONDS`
	ref := newExploreFixture(t, 60000, Options{Workers: 2})
	want, err := answer(ref, parse(t, src))
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
		resp, err := answerTraced(ctx, f, parse(t, src), nil)
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
		gen := f.gen.Load()
		if d.Cancelled != 1 || entries(gen.results) != 0 {
			t.Fatalf("cancel at check %d: Cancelled moved by %d, %d results cached", checks, d.Cancelled, entries(gen.results))
		}
		pq, cached := gen.plans.Get(key)
		switch {
		case !cached && d.ProbeExecs > 0:
			midProbe++
		case cached:
			// Cancelled during the final read: the template was fully
			// prepared first, so it must serve the reference answer.
			afterProbe++
			q := parse(t, src)
			_, params := sqlparser.Normalize(q)
			got, err := f.execute(context.Background(), pq, q, params, nil, nil)
			if err != nil || len(pq.disjuncts) != 1 || len(pq.disjuncts[0].famDec.Probed) != 4 ||
				!reflect.DeepEqual(got.Result, want.Result) {
				t.Fatalf("cancel at check %d: cached a template that does not answer like a clean one (err %v)", checks, err)
			}
			// Keep every pass cold.
			f.gen.Store(f.newGeneration(f.cat.Version()))
		}
	}
	if midProbe == 0 || afterProbe == 0 {
		t.Errorf("sweep cancelled %d times mid-probe and %d times after the probes; want both", midProbe, afterProbe)
	}
}

// probeScans walks a span tree and counts the executor runs ("scan
// blocks=N" spans) by what they ran for: a candidate's count pass ("probe
// X"), a full-plan probe ("probe X full", or the lone "probe X" of a
// covering family, which has no candidates span above it), anything else.
func probeScans(s *telemetry.Span, underCandidates bool, counts, fulls, others *int) {
	for _, c := range s.Children() {
		if strings.HasPrefix(c.Name(), "scan blocks=") {
			switch name := s.Name(); {
			case strings.HasPrefix(name, "probe ") && underCandidates && !strings.HasSuffix(name, " full"):
				*counts++
			case strings.HasPrefix(name, "probe "):
				*fulls++
			default:
				*others++
			}
		}
		probeScans(c, underCandidates || strings.HasPrefix(c.Name(), "probe candidates="), counts, fulls, others)
	}
}

// TestProbeOncePerFamilyView is the double-probe regression test: one
// bounded query runs the FULL plan at most once per (family, view); the
// count passes that compare candidates are one per candidate and nothing
// more. Before the first fix, selectFamily probed every candidate's
// smallest sample and selectResolution re-ran the identical probe on the
// winner; with delta reuse the final read then re-executed the same view a
// third time.
func TestProbeOncePerFamilyView(t *testing.T) {
	f := newFixture(t, 30000, Options{})
	run := func(src string) (resp *Response, d Stats, counts, fulls, others int) {
		t.Helper()
		before := f.rt.Stats()
		tr := telemetry.New("q")
		resp, err := answerTraced(context.Background(), f.rt, parse(t, src), tr)
		tr.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Decisions[0].UsedBase {
			t.Fatal("25% bound should be satisfiable from samples")
		}
		probeScans(tr.Root(), false, &counts, &fulls, &others)
		return resp, f.rt.Stats().Delta(before), counts, fulls, others
	}

	// No covering family: φ = {genre} intersects neither [city] nor
	// [os,url], so all 3 families (2 stratified + uniform) are probed: 3
	// count passes and the plan once, on the winner. The loose bound keeps
	// the chosen level at the probe level, so that one full pass doubles as
	// the final answer: 4 executions, and Stats counts every one of them.
	resp, d, counts, fulls, others := run(`SELECT COUNT(*) FROM sessions WHERE genre = 'western' ERROR WITHIN 25%`)
	probed := len(resp.Decisions[0].Probed)
	if probed != 3 || counts != probed || fulls != 1 || others != 0 {
		t.Errorf("%d probed families ran %d count passes, %d full-plan probes and %d further scans; want one count pass each, the plan once on the winner, and the final answer reused from it",
			probed, counts, fulls, others)
	}
	if want := int64(probed + 1); d.PlanExecs != want || d.ProbeExecs != want {
		t.Errorf("Stats advanced by %d plan / %d probe execs, want %d each (every executor run is counted)", d.PlanExecs, d.ProbeExecs, want)
	}

	// Covering family: no candidates to compare, so no count pass; the one
	// probe runs the plan and the final answer reuses it — 1 execution, or 2
	// when the final read is on a strictly larger view (a new (family, view)).
	resp, d, counts, fulls, others = run(`SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 25%`)
	want := 0
	if pv := f.rt.probeView(resp.Decisions[0].View.Family); resp.Decisions[0].View.Level != pv.Level {
		want = 1
	}
	if counts != 0 || fulls != 1 || others != want || d.PlanExecs != int64(1+want) {
		t.Errorf("covering path ran %d count passes, %d full-plan probes and %d further scans (%d plan execs), want 0, 1 and %d",
			counts, fulls, others, d.PlanExecs, want)
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
	resp, err := answer(rt, parse(t, `SELECT COUNT(*) FROM sessions WHERE genre = 'drama' ERROR WITHIN 25%`))
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

// countsOf is what a Count of res's run reports (its blocks aside).
func countsOf(res *exec.Result) exec.Counts {
	return exec.Counts{RowsScanned: res.RowsScanned, RowsMatched: res.RowsMatched}
}
