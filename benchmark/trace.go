package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"blinkdb"
	"blinkdb/internal/telemetry"
)

// The traced run. Per workload, one client sends a fixed prefix of the
// sequence twice: pass 1 over HTTP with the benchmark's middleware around
// srv.ServeHTTP, pass 2 in-process through Engine.QueryTraced on a second,
// identically built engine. Every request is non-streaming in both (final
// answers are bit-identical to the streaming path's; the timed phase
// covers streaming), so the two passes' Engine.Stats deltas must agree. A short closed-loop phase with all
// clients follows pass 1 for the numbers only contention produces.

// handlerSpans is the middleware: it hangs a server.handler span under
// whatever span the single client published for the request in flight.
type handlerSpans struct {
	next http.Handler
	cur  atomic.Pointer[telemetry.Span] // nil = spans off
}

func (h *handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := h.cur.Load().Child("server.handler")
	h.next.ServeHTTP(w, r)
	sp.End()
}

// teleSums folds an Engine.Telemetry snapshot into totals, so that a
// difference of two snapshots covers exactly the queries in between.
type teleSums struct{ queries, wallS, simS, predBound, obsBound float64 }

func sumTelemetry(s telemetry.Snapshot) teleSums {
	var t teleSums
	for _, ts := range s.Templates {
		t.queries += float64(ts.Latency.Count)
		t.wallS += float64(ts.Latency.Count) * ts.Latency.Mean
		t.simS += float64(ts.PredictedLatency.Count) * ts.PredictedLatency.Mean
		t.predBound += float64(ts.PredictedBound.Count) * ts.PredictedBound.Mean
		t.obsBound += float64(ts.ObservedBound.Count) * ts.ObservedBound.Mean
	}
	return t
}

func (a teleSums) minus(b teleSums) teleSums {
	return teleSums{a.queries - b.queries, a.wallS - b.wallS, a.simS - b.simS,
		a.predBound - b.predBound, a.obsBound - b.obsBound}
}

const (
	keepTraces   = 100 // span trees per pass written to -trace-out
	compareFirst = 200 // prefix requests whose two answers are compared cell by cell
)

// refreshDue reports whether a traced pass refreshes before request i of
// the sequence: fixed positions, so both passes see the same epochs, and
// as many requests apart as all clients send between two refreshes of a
// timed run.
func refreshDue(cfg config, w workload, i int) bool {
	every := cfg.scaled(refreshEvery * cfg.clients)
	return w.refresh && i%every == every-1
}

// httpPass is pass 1.
type httpPass struct {
	clientUS, handlerUS, transportUS []float64
	bytes                            []float64
	finals                           [][]byte
	stats                            blinkdb.EngineStats
	tele                             teleSums
	waitS                            float64 // admission wait summed over the pass
	traces                           []*telemetry.Trace
}

func runHTTPPass(cfg config, w workload, eng *blinkdb.Engine, mw *handlerSpans, met *telemetry.ServerMetrics,
	base string, plain []request, warm, n int) (*httpPass, error) {

	cl := newClient(base)
	defer cl.close()
	refresh := refresher(eng)
	send := func(i int) (reply, error) {
		if refreshDue(cfg, w, i) {
			if err := refresh(); err != nil {
				return reply{}, err
			}
		}
		req := &plain[i%len(plain)]
		rep, err := cl.do(req.body)
		if err == nil && !wellFormed(rep) {
			err = fmt.Errorf("status %d: %.200s", rep.status, rep.body)
		}
		if err != nil {
			err = fmt.Errorf("request %d (%s): %w", i, req.sql, err)
		}
		return rep, err
	}
	for i := 0; i < warm; i++ {
		if _, err := send(i); err != nil {
			return nil, err
		}
	}
	p := &httpPass{}
	statsBefore, teleBefore := eng.Stats(), sumTelemetry(eng.Telemetry())
	waitBefore := met.Snapshot().QueueWait
	for i := warm; i < warm+n; i++ {
		tr := telemetry.New("request")
		hsp := tr.Root().Child("http")
		mw.cur.Store(hsp)
		rep, err := send(i)
		hsp.End()
		tr.Finish()
		if err != nil {
			return nil, err
		}
		kids := hsp.Children()
		if len(kids) != 1 {
			return nil, fmt.Errorf("request %d: %d server.handler spans, want 1", i, len(kids))
		}
		client, handler := rep.total.Seconds()*1e6, kids[0].Duration().Seconds()*1e6
		p.clientUS = append(p.clientUS, client)
		p.handlerUS = append(p.handlerUS, handler)
		p.transportUS = append(p.transportUS, client-handler)
		p.bytes = append(p.bytes, float64(len(rep.body)))
		if len(p.finals) < compareFirst {
			p.finals = append(p.finals, append([]byte(nil), lastFrame(rep.body)...))
		}
		if len(p.traces) < keepTraces {
			p.traces = append(p.traces, tr)
		}
	}
	mw.cur.Store(nil)
	p.stats = eng.Stats().Delta(statsBefore)
	p.tele = sumTelemetry(eng.Telemetry()).minus(teleBefore)
	waitAfter := met.Snapshot().QueueWait
	p.waitS = float64(waitAfter.Count)*waitAfter.Mean - float64(waitBefore.Count)*waitBefore.Mean
	return p, nil
}

// spanOverhead sends each of n cached replays twice, once with pass 1's
// spans and once without (which goes first alternates), and returns
// median(with)/median(without) − 1 over the whole round trip including the
// client's own span calls: what tracing adds where a request is shortest.
// Neighbouring pairs see the same host, so its drift cancels.
func spanOverhead(mw *handlerSpans, base string, hot []request, n int) (float64, error) {
	cl := newClient(base)
	defer cl.close()
	send := func(req *request, traced bool) (float64, error) {
		start := time.Now()
		var tr *telemetry.Trace
		var hsp *telemetry.Span
		if traced {
			tr = telemetry.New("request")
			hsp = tr.Root().Child("http")
		}
		mw.cur.Store(hsp)
		rep, err := cl.do(req.body)
		hsp.End()
		tr.Finish()
		mw.cur.Store(nil)
		if err != nil || !wellFormed(rep) {
			return 0, fmt.Errorf("overhead replay: status %d, err %v", rep.status, err)
		}
		return time.Since(start).Seconds(), nil
	}
	for i := range hot { // every later send replays a cached answer
		if _, err := send(&hot[i], false); err != nil {
			return 0, err
		}
	}
	var with, without []float64
	for i := 0; i < n; i++ {
		for _, traced := range []bool{i%2 == 0, i%2 != 0} {
			d, err := send(&hot[i%len(hot)], traced)
			if err != nil {
				return 0, err
			}
			if traced {
				with = append(with, d)
			} else {
				without = append(without, d)
			}
		}
	}
	return median(with)/median(without) - 1, nil
}

// enginePass is pass 2.
type enginePass struct {
	directUS, rootUS         []float64
	buckets                  map[string]float64 // µs summed over the pass, by layer metric
	rowsScanned, rowsMatched int64
	levelSum, sampled        int // over answers served from a sample
	baseAnswers              int
	stats                    blinkdb.EngineStats
	tele                     teleSums
	wallS                    float64
	rewarmS                  float64 // refresh workloads: refreshes plus dashboard-mix requests that had to execute
	traces                   []*telemetry.Trace
}

// spanBuckets names the layer metric each engine span's self time
// belongs to; spans not listed (the root, execute, the re-execute paths)
// go to engine.other_us.
var spanBuckets = map[string]string{
	"normalize":           "elp.normalize_us",
	"result-cache lookup": "resultcache.lookup_us",
	"plan-cache lookup":   "plancache.lookup_us",
	"prepare":             "elp.prepare_us",
	"materialize":         "elp.materialize_us",
	"bind+scan":           "elp.bind_us",
}

// foldSpan adds s's subtree to buckets (µs). Probes keep their scans: a
// probe is a scan of a smallest sample, and exec.* then means the final
// read only. A scan's self time is everything under it but the merge.
func foldSpan(s *telemetry.Span, buckets map[string]float64) {
	us := s.Duration().Seconds() * 1e6
	switch name := s.Name(); {
	case strings.HasPrefix(name, "probe"):
		buckets["elp.probe_us"] += us
	case strings.HasPrefix(name, "scan blocks"):
		merge := 0.0
		for _, c := range s.Children() {
			if c.Name() == "merge" {
				merge += c.Duration().Seconds() * 1e6
			}
		}
		buckets["exec.merge_us"] += merge
		buckets["exec.scan_us"] += us - merge
	default:
		bucket, ok := spanBuckets[name]
		switch {
		case strings.HasPrefix(name, "refinement"):
			bucket = "elp.bind_us"
		case !ok:
			bucket = "engine.other_us"
		}
		buckets[bucket] += spanSelf(s) * 1e6
		for _, c := range s.Children() {
			foldSpan(c, buckets)
		}
	}
}

func runEnginePass(cfg config, w workload, eng *blinkdb.Engine, plain []request, warm, n int, finals [][]byte) (*enginePass, error) {
	refresh := refresher(eng)
	p := &enginePass{buckets: map[string]float64{}}
	maybeRefresh := func(i int) error {
		if !refreshDue(cfg, w, i) {
			return nil
		}
		t := time.Now()
		err := refresh()
		if i >= warm {
			p.rewarmS += time.Since(t).Seconds()
		}
		return err
	}
	for i := 0; i < warm; i++ {
		if err := maybeRefresh(i); err != nil {
			return nil, err
		}
		if _, err := eng.QueryCtx(context.Background(), plain[i%len(plain)].boundSQL()); err != nil {
			return nil, err
		}
	}
	statsBefore, teleBefore := eng.Stats(), sumTelemetry(eng.Telemetry())
	start := time.Now()
	for i := warm; i < warm+n; i++ {
		if err := maybeRefresh(i); err != nil {
			return nil, err
		}
		req := &plain[i%len(plain)]
		sql := req.boundSQL()
		t := time.Now()
		res, tr, err := eng.QueryTraced(sql)
		d := time.Since(t).Seconds()
		if err != nil {
			return nil, fmt.Errorf("request %d (%s): %w", i, sql, err)
		}
		p.directUS = append(p.directUS, d*1e6)
		p.rootUS = append(p.rootUS, tr.Root().Duration().Seconds()*1e6)
		foldSpan(tr.Root(), p.buckets)
		p.rowsScanned += res.RowsScanned
		p.rowsMatched += res.RowsMatched
		if res.Level < 0 {
			p.baseAnswers++
		} else {
			p.levelSum += res.Level
			p.sampled++
		}
		if w.refresh && !req.adhoc && res.ResultCache != "hit" {
			p.rewarmS += d
		}
		if j := i - warm; j < len(finals) {
			if err := sameAnswer(finals[j], res); err != nil {
				return nil, fmt.Errorf("request %d (%s): HTTP and in-process answers differ: %w", i, sql, err)
			}
		}
		if len(p.traces) < keepTraces {
			p.traces = append(p.traces, tr)
		}
	}
	p.wallS = time.Since(start).Seconds()
	p.stats = eng.Stats().Delta(statsBefore)
	p.tele = sumTelemetry(eng.Telemetry()).minus(teleBefore)
	return p, nil
}

// sameAnswer requires an HTTP final frame and an in-process Result to be
// the same answer, cell for cell (floats survive the JSON round trip).
func sameAnswer(final []byte, res *blinkdb.Result) error {
	var f wireFrame
	if err := json.Unmarshal(final, &f); err != nil {
		return err
	}
	if f.Result == nil || len(f.Result.Rows) != len(res.Rows) {
		return fmt.Errorf("row counts differ")
	}
	if f.Result.SimLatencySeconds != res.SimLatencySeconds || f.Result.RowsScanned != res.RowsScanned {
		return fmt.Errorf("sim latency %v/%v, rows scanned %d/%d", f.Result.SimLatencySeconds,
			res.SimLatencySeconds, f.Result.RowsScanned, res.RowsScanned)
	}
	for i, row := range f.Result.Rows {
		want := res.Rows[i]
		if row.Group != want.Group || len(row.Cells) != len(want.Cells) {
			return fmt.Errorf("row %d: group %q/%q", i, row.Group, want.Group)
		}
		for j, c := range row.Cells {
			wc := want.Cells[j]
			if c.Value != wc.Value || c.Bound != wc.Bound || c.Exact != wc.Exact {
				return fmt.Errorf("row %d cell %d: %v±%v/%v±%v", i, j, c.Value, c.Bound, wc.Value, wc.Bound)
			}
		}
	}
	return nil
}

// sameCounters requires the two passes' Engine.Stats deltas to agree:
// prepares, probes, plan-cache misses and the number of lookups exactly.
// Result-cache hits are not reproducible from one engine to the next once
// the cache evicts — its shards are picked with a per-instance random
// hash seed — so hits, and the executions that follow from misses, may
// differ by a handful: at most 0.5% of the requests.
func sameCounters(a, b blinkdb.EngineStats, n int) error {
	lookups := func(s blinkdb.EngineStats) int64 {
		return s.ResultCacheHits + s.ResultCacheMisses + s.ResultCacheShared
	}
	slack := int64(max(2, n/200))
	near := func(x, y int64) bool { return x-y <= slack && y-x <= slack }
	if a.Prepares != b.Prepares || a.ProbeExecs != b.ProbeExecs || a.PlanCacheMisses != b.PlanCacheMisses ||
		lookups(a) != lookups(b) || !near(a.ResultCacheHits, b.ResultCacheHits) || !near(a.PlanExecs, b.PlanExecs) {
		return fmt.Errorf("Engine.Stats deltas differ: HTTP pass %+v, in-process pass %+v", a, b)
	}
	return nil
}

// contentionMetrics are the layer numbers that need all clients at once:
// read from the clients' tallies and from counters the program exports.
func contentionMetrics(p *phase, t *timings, stats blinkdb.EngineStats, adm telemetry.ServerSnapshot) []metric {
	reqs := p.ok + p.failed
	per := func(v float64) float64 { return v / float64(max(1, reqs)) }
	answered := stats.ResultCacheHits + stats.ResultCacheMisses + stats.ResultCacheShared
	return []metric{
		{"client.query_p95_ms", "ms", percentile(t.query, 0.95) * 1e3, len(t.query)},
		{"client.query_p99_ms", "ms", percentile(t.query, 0.99) * 1e3, len(t.query)},
		{"http.response_bytes_per_request", "B", per(float64(p.bytes)), reqs},
		{"server.frames_per_stream", "count", float64(p.frames) / float64(max(1, len(t.ttf))), len(t.ttf)},
		{"admission.queue_wait_us_p50", "us", adm.QueueWait.P50 * 1e6, int(adm.QueueWait.Count)},
		{"admission.queue_wait_us_p95", "us", adm.QueueWait.P95 * 1e6, int(adm.QueueWait.Count)},
		{"admission.shed", "count", float64(adm.Shed), reqs},
		{"admission.queue_cancelled", "count", float64(adm.QueueCancelled), reqs},
		{"resultcache.shared_rate", "ratio", float64(stats.ResultCacheShared) / float64(max(1, answered)), int(answered)},
		{"maintenance.refresh_s_p50", "s", median(p.refreshS), len(p.refreshS)},
		{"maintenance.refreshes", "count", float64(len(p.refreshS)), len(p.refreshS)},
		{"runtime.allocs_per_request", "count", per(float64(p.after.Mallocs - p.before.Mallocs)), reqs},
		{"runtime.alloc_kb_per_request", "KB", per(float64(p.after.TotalAlloc-p.before.TotalAlloc) / 1024), reqs},
		{"runtime.gc_cycles", "count", float64(p.after.NumGC - p.before.NumGC), reqs},
		{"runtime.gc_pause_ms", "ms", float64(p.after.PauseTotalNs-p.before.PauseTotalNs) / 1e6, reqs},
	}
}

// sizingTargets are what each workload was built to exercise; a traced
// run prints the ones it misses.
func sizingTargets(name string, v func(string) float64) []string {
	var missed []string
	want := func(ok bool, format string, args ...any) {
		if !ok {
			missed = append(missed, "sizing target missed: "+fmt.Sprintf(format, args...))
		}
	}
	// A layer's share of client time: its share of pass 2's engine time,
	// times the engine's share of pass 1's client time. The two passes run
	// at different speeds (one behind net/http, one paying for spans), so
	// µs from one are not divided by µs from the other.
	shareOfClient := func(names ...string) float64 {
		us := 0.0
		for _, n := range names {
			us += v(n)
		}
		return us / v("engine.traced_us_mean") * v("engine.query_us_mean") / v("client.request_us_mean")
	}
	switch name {
	case "dash_hot":
		want(v("resultcache.hit_rate") >= 0.95, "resultcache.hit_rate %.3f < 0.95", v("resultcache.hit_rate"))
		execShare := shareOfClient("exec.scan_us", "exec.merge_us")
		want(execShare <= 0.05, "exec self time is %.1f%% of client time, want ≤ 5%%", execShare*100)
	case "adhoc_scan":
		want(v("resultcache.hit_rate") <= 0.02, "resultcache.hit_rate %.3f > 0.02", v("resultcache.hit_rate"))
		want(v("plancache.hit_rate") >= 0.98, "plancache.hit_rate %.3f < 0.98", v("plancache.hit_rate"))
		execShare := shareOfClient("exec.scan_us", "exec.merge_us")
		want(execShare >= 0.60, "exec.scan_us+exec.merge_us is %.1f%% of client time, want ≥ 60%%", execShare*100)
		want(v("elp.base_fallback_share") <= 0.25, "elp.base_fallback_share %.3f > 0.25", v("elp.base_fallback_share"))
		want(v("server.frames_per_stream") >= 2, "server.frames_per_stream %.2f < 2", v("server.frames_per_stream"))
	case "explore_cold":
		want(v("plancache.hit_rate") <= 0.05, "plancache.hit_rate %.3f > 0.05", v("plancache.hit_rate"))
		prep := shareOfClient("elp.prepare_us", "elp.probe_us")
		want(prep >= 0.40, "elp.prepare_us+elp.probe_us is %.1f%% of client time, want ≥ 40%%", prep*100)
	case "refresh_mixed":
		want(v("maintenance.rewarm_share") >= 0.30, "refresh plus post-refresh misses are %.1f%% of wall time, want ≥ 30%%",
			v("maintenance.rewarm_share")*100)
	}
	return missed
}

// runTraced produces one workload's per-layer table.
func runTraced(cfg config, w workload, traceOut string) (*result, error) {
	res := &result{Workload: w.name, Traced: true}
	su, err := setup(cfg.seed, cfg.rows, "")
	if err != nil {
		return nil, err
	}
	memMB := heapMB()
	reqs := w.requests(cfg.seed)
	plain := make([]request, len(reqs))
	for i := range reqs {
		plain[i] = reqs[i]
		plain[i].stream = false
		plain[i].marshal()
	}
	warm, n := cfg.scaled(w.warmup), cfg.scaled(w.traceN)

	// Pass 1 and the overhead blocks: one client, spans from the middleware.
	srv := newServer(su.eng)
	mw := &handlerSpans{next: srv}
	base, stop, err := listen(mw)
	if err != nil {
		return nil, err
	}
	p1, err := runHTTPPass(cfg, w, su.eng, mw, srv.Metrics(), base, plain, warm, n)
	if err != nil {
		stop()
		return nil, err
	}
	overhead, err := spanOverhead(mw, base, plain[warm:warm+min(64, n)], cfg.scaled(4000))
	stop()
	if err != nil {
		return nil, err
	}

	// Contention phase: all clients, streaming as sequenced, a fresh
	// server.Server so its admission histograms hold this phase only.
	srv = newServer(su.eng)
	base, stop, err = listen(srv)
	if err != nil {
		return nil, err
	}
	var refresh func() error
	if w.refresh {
		refresh = refresher(su.eng)
	}
	statsBefore := su.eng.Stats()
	ph, err := drive(base, reqs, warm+n, cfg.clients, 0, time.Duration(cfg.seconds*0.3*float64(time.Second)), refresh)
	if err != nil {
		stop()
		return nil, err
	}
	contention := contentionMetrics(ph, ph.all(), su.eng.Stats().Delta(statsBefore), srv.Metrics().Snapshot())
	// Ground truth for the answers the prefix produced, once nothing on
	// this engine is left to measure.
	g, err := checkPass(su.eng, base, w, plain[warm:], cfg.scaled(100))
	stop()
	if err != nil {
		return nil, err
	}
	families, sampleRows := 0, int64(0)
	for _, f := range su.report.Families {
		if len(f.Columns) > 0 {
			families++
		}
		sampleRows += f.Rows
	}
	storageRatio := float64(su.report.TotalBytes) / (float64(su.report.BudgetBytes) / sampleOptions().BudgetFraction)
	su = setupResult{loadS: su.loadS, samplesS: su.samplesS} // drop engine 1 before building engine 2

	// Pass 2: the same prefix in-process on a second engine.
	su2, err := setup(cfg.seed, cfg.rows, "")
	if err != nil {
		return nil, err
	}
	p2, err := runEnginePass(cfg, w, su2.eng, plain, warm, n, p1.finals)
	if err != nil {
		return nil, err
	}
	if err := sameCounters(p1.stats, p2.stats, n); err != nil {
		res.Notes = append(res.Notes, "failure: "+err.Error())
		res.Failed++
	}
	su2 = setupResult{}

	// Layers measured on their own.
	parseUS, normalizeUS, err := parserLayer(plain[warm : warm+min(n, 2000)])
	if err != nil {
		return nil, err
	}
	scan, err := scanLayer(cfg.seed, 2*cfg.rows)
	if err != nil {
		return nil, err
	}
	stub, err := measureStub(int(median(p1.bytes)), cfg.scaled(3000), plain[warm].body)
	if err != nil {
		return nil, err
	}
	persist, err := persistenceLayer(cfg, plain[warm:])
	if err != nil {
		res.Notes = append(res.Notes, "failure: persistence: "+err.Error())
		res.Failed++
	}

	fn := float64(n)
	clientMean, handlerMean := mean(p1.clientUS), mean(p1.handlerUS)
	engineMean := p1.tele.wallS / math.Max(1, p1.tele.queries) * 1e6
	waitMean := p1.waitS / fn * 1e6
	answers := float64(p2.baseAnswers + p2.sampled)
	planLookups := float64(p2.stats.PlanCacheHits + p2.stats.PlanCacheMisses)
	resultLookups := float64(p2.stats.ResultCacheHits + p2.stats.ResultCacheMisses + p2.stats.ResultCacheShared)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	bucket := func(name string) float64 { return p2.buckets[name] / fn }

	res.add("client.request_us_mean", "us", clientMean, n)
	res.add("client.stub_us_p50", "us", stub.p50US, cfg.scaled(3000))
	res.add("client.stub_share_of_p50", "ratio", ratio(stub.p50US, median(p1.clientUS)), n)
	res.add("client.alloc_kb_per_request", "KB", stub.allocKBPerOp, cfg.scaled(3000))
	res.add("http.transport_us_p50", "us", median(p1.transportUS), n)
	res.add("http.response_bytes_p50", "B", median(p1.bytes), n)
	res.add("server.handler_us_p50", "us", median(p1.handlerUS), n)
	res.add("server.handler_us_mean", "us", handlerMean, n)
	res.add("server.self_us_mean", "us", handlerMean-waitMean-engineMean, n)
	res.add("admission.queue_wait_us_mean", "us", waitMean, n)
	res.add("sqlparser.parse_us_p50", "us", parseUS, min(n, 2000))
	res.add("sqlparser.normalize_us_p50", "us", normalizeUS, min(n, 2000))
	res.add("engine.query_us_mean", "us", engineMean, int(p1.tele.queries))
	res.add("engine.query_us_p50", "us", median(p2.directUS), n)
	res.add("engine.direct_us_mean", "us", mean(p2.directUS), n)
	res.add("engine.traced_us_mean", "us", mean(p2.rootUS), n)
	for _, name := range []string{"elp.normalize_us", "elp.prepare_us", "elp.probe_us", "elp.bind_us",
		"elp.materialize_us", "plancache.lookup_us", "resultcache.lookup_us", "exec.scan_us", "exec.merge_us", "engine.other_us"} {
		res.add(name, "us", bucket(name), n)
	}
	res.add("elp.prepares_per_query", "count", float64(p2.stats.Prepares)/fn, n)
	res.add("elp.probe_execs_per_query", "count", float64(p2.stats.ProbeExecs)/fn, n)
	res.add("elp.plan_execs_per_query", "count", float64(p2.stats.PlanExecs)/fn, n)
	res.add("elp.base_fallback_share", "ratio", ratio(float64(p2.baseAnswers), answers), n)
	res.add("elp.mean_level", "level", ratio(float64(p2.levelSum), float64(p2.sampled)), p2.sampled)
	res.add("elp.predicted_over_observed_bound", "ratio", ratio(p2.tele.predBound, p2.tele.obsBound), int(p2.tele.queries))
	res.add("elp.sim_over_wall_latency", "ratio", ratio(p2.tele.simS, p2.tele.wallS), int(p2.tele.queries))
	res.add("elp.missing_group_share", "ratio", share(g.missingGroups, g.truthGroups), g.truthGroups)
	res.add("elp.false_exact_share", "ratio", share(g.falseExact, g.exactCells), g.exactCells)
	res.add("plancache.hit_rate", "ratio", ratio(float64(p2.stats.PlanCacheHits), planLookups), int(planLookups))
	res.add("resultcache.hit_rate", "ratio",
		ratio(float64(p2.stats.ResultCacheHits+p2.stats.ResultCacheShared), resultLookups), int(resultLookups))
	res.add("exec.rows_scanned_per_query", "rows", float64(p2.rowsScanned)/fn, n)
	res.add("exec.rows_matched_per_query", "rows", float64(p2.rowsMatched)/fn, n)
	res.add("exec.scan_rows_per_s_w1", "rows/s", scan.w1, int(scan.rows))
	res.add("exec.scan_rows_per_s_wmax", "rows/s", scan.wmax, int(scan.rows))
	res.add("exec.scan_rows_per_s_w8", "rows/s", scan.w8, int(scan.rows))
	res.add("exec.w8_over_wmax", "ratio", ratio(scan.w8, scan.wmax), int(scan.rows))
	res.add("exec.scan_gb_per_s", "GB/s", scan.gbPerS, int(scan.rows))
	res.add("host.memcpy_gb_per_s", "GB/s", scan.memcpyGBPerS, 5)
	res.add("exec.roofline_fraction", "ratio", ratio(scan.gbPerS, scan.memcpyGBPerS), int(scan.rows))
	res.add("setup.load_s", "s", su.loadS, 1)
	res.add("setup.create_samples_s", "s", su.samplesS, 1)
	res.add("setup.heap_mb", "MB", memMB, 1)
	res.add("sample.families", "count", float64(families), 1)
	res.add("sample.rows", "rows", float64(sampleRows), 1)
	res.add("sample.storage_ratio", "ratio", storageRatio, 1)
	res.add("maintenance.rewarm_share", "ratio", p2.rewarmS/p2.wallS, n)
	res.add("persistence.cold_boot_s", "s", persist.coldS, 1)
	res.add("persistence.snapshot_s", "s", persist.snapshotS, 1)
	res.add("persistence.warm_boot_s", "s", persist.warmS, 1)
	res.add("blockfile.segment_mb", "MB", persist.segmentMB, 1)
	res.add("trace.overhead_fraction", "ratio", overhead, cfg.scaled(4000))
	res.Metrics = append(res.Metrics, contention...)

	// How well the table closes. These are timing relations, so they are
	// reported, not failed on.
	res.addExtra("closure.engine_http_over_traced", "ratio", ratio(engineMean, mean(p2.rootUS)), n)
	res.addExtra("closure.engine_http_over_direct", "ratio", ratio(engineMean, mean(p2.directUS)), n)
	res.addExtra("closure.traced_over_direct", "ratio", ratio(mean(p2.rootUS), mean(p2.directUS)), n)
	res.addExtra("closure.http_over_in_process", "ratio", ratio(clientMean, mean(p2.directUS)), n)
	v := func(name string) float64 { x, _ := res.get(name); return x }
	if v("http.transport_us_p50") < 0 || v("server.self_us_mean") < 0 {
		res.Notes = append(res.Notes, "closure: a remainder is negative")
	}
	if r := v("closure.engine_http_over_traced"); r < 0.85 || r > 1.15 {
		res.Notes = append(res.Notes, fmt.Sprintf("closure: the engine took %.2f× as long behind HTTP (pass 1, Engine.Telemetry) as in-process (pass 2, root span)", r))
	}
	if r := v("closure.traced_over_direct"); r < 0.90 {
		res.Notes = append(res.Notes, fmt.Sprintf("closure: the span tree (its self-times sum to the root span) covers %.0f%% of the wall time around QueryTraced (Parse, result building and trace rendering run outside the root span)", r*100))
	}
	if families < 3 {
		res.Notes = append(res.Notes, fmt.Sprintf("failure: %d stratified families, want ≥ 3", families))
		res.Failed++
	}
	res.Notes = append(res.Notes, sizingTargets(w.name, v)...)

	res.Attempted = warm + 2*n + ph.ok + ph.failed + g.attempted
	res.Failed += ph.failed + g.failed
	for _, f := range []string{ph.firstFailure, g.firstFailure} {
		if f != "" {
			res.Notes = append(res.Notes, "failure: "+f)
		}
	}
	res.Correct = res.Failed == 0
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, err
		}
		err = telemetry.WriteChrome(f, append(p1.traces, p2.traces...))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
