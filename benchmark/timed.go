package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"blinkdb"
	"blinkdb/internal/admission"
	"blinkdb/internal/server"
)

// config sizes one run. Nothing in it selects behaviour inside the engine.
type config struct {
	seed    int64
	rows    int
	seconds float64 // timed phase length
	clients int     // closed-loop clients, min(nproc, 4)
	setups  int     // timed set-ups per run; setup_s is their median
	checks  int     // check-pass requests
}

func defaultClients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// scaled shrinks a count sized for the default 10 s phase in proportion
// to a shorter -duration (tests run 1 s), never below 1.
func (c config) scaled(n int) int {
	if c.seconds >= 10 {
		return n
	}
	if m := int(float64(n) * c.seconds / 10); m > 0 {
		return m
	}
	return 1
}

// newServer wraps eng exactly as cmd/blinkdb-server does by default: one
// execution seat, 16 queued, 30 s of predicted backlog.
func newServer(eng *blinkdb.Engine) *server.Server {
	return server.New(eng, server.Config{Admission: admission.Config{
		MaxConcurrent: 1, MaxQueue: 16, MaxBacklogSeconds: 30,
	}})
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// refreshEvery spaces a refresh workload's Engine.RefreshSamples calls:
// one per 500 requests of the refreshing client, about one a second at
// the rate this host serves refresh_mixed. Counting requests, not
// seconds, keeps the share of work that is refresh and re-warm the same
// on a slow host as on a fast one; by the clock, a host half as fast
// would spend twice the share of its run refreshing.
const refreshEvery = 500

// sample is one answered request: when its last byte arrived (seconds
// into the phase) and how long it took.
type sample struct {
	at, first, total float64
	stream           bool
}

// phase is what the clients saw over one stretch of the sequence.
type phase struct {
	elapsed       float64 // wall seconds, first send → last reply
	samples       []sample
	frames        int   // frames over all streaming replies
	bytes         int64 // response bytes
	ok, failed    int
	firstFailure  string
	refreshS      []float64 // Engine.RefreshSamples wall seconds
	before, after runtime.MemStats
}

// timings are a phase's latencies, each ascending.
type timings struct {
	seconds   float64
	ok        int
	query     []float64 // non-streaming: send → last byte, seconds
	ttfa, ttf []float64 // streaming: send → first frame / final frame, seconds
}

func (t *timings) add(s sample) {
	t.ok++
	if s.stream {
		t.ttfa = append(t.ttfa, s.first)
		t.ttf = append(t.ttf, s.total)
	} else {
		t.query = append(t.query, s.total)
	}
}

func (t *timings) sort() {
	sort.Float64s(t.query)
	sort.Float64s(t.ttfa)
	sort.Float64s(t.ttf)
}

// all folds the whole phase into one set of timings.
func (p *phase) all() *timings {
	t := &timings{seconds: p.elapsed}
	for _, s := range p.samples {
		t.add(s)
	}
	t.sort()
	return t
}

// slices cuts the first d seconds of the phase into n equal parts by
// completion time (replies after d join the last part). Reporting the
// median part, not the whole, keeps a burst of interference on a shared
// host (a neighbour, a long GC) out of the figure unless it lasts half
// the run.
func (p *phase) slices(d float64, n int) []*timings {
	out := make([]*timings, n)
	for i := range out {
		out[i] = &timings{seconds: d / float64(n)}
	}
	for _, s := range p.samples {
		out[min(int(s.at/d*float64(n)), n-1)].add(s)
	}
	for _, t := range out {
		t.sort()
	}
	return out
}

// medianOf is the median over parts of one figure.
func medianOf(parts []*timings, f func(*timings) float64) float64 {
	v := make([]float64, len(parts))
	for i, t := range parts {
		v[i] = f(t)
	}
	return median(v)
}

// drive runs the closed loop: client c sends requests from+c,
// from+c+clients, … of the sequence (wrapping around), each over its own
// keep-alive connection, waiting for every reply. It stops after count
// requests in total, or at the deadline when count is 0. With refresh
// set, the last client also calls it before every refreshEvery-th of its
// own requests.
func drive(base string, reqs []request, from, clients, count int, d time.Duration, refresh func() error) (*phase, error) {
	parts := make([]*phase, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	total := &phase{before: readMem()}
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		c := c
		parts[c] = &phase{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := parts[c]
			cl := newClient(base)
			defer cl.close()
			for i, sent := c, 0; ; i, sent = i+clients, sent+1 {
				if count > 0 && i >= count || count == 0 && !time.Now().Before(deadline) {
					return
				}
				if refresh != nil && c == clients-1 && sent%refreshEvery == refreshEvery-1 {
					t := time.Now()
					if err := refresh(); err != nil {
						errs[c] = err
						return
					}
					p.refreshS = append(p.refreshS, time.Since(t).Seconds())
				}
				req := &reqs[(from+i)%len(reqs)]
				rep, err := cl.do(req.body)
				if err != nil || !wellFormed(rep) {
					p.failed++
					if p.firstFailure == "" {
						p.firstFailure = fmt.Sprintf("%s: status %d, err %v", req.sql, rep.status, err)
					}
					continue
				}
				p.ok++
				p.bytes += int64(len(rep.body))
				p.samples = append(p.samples, sample{
					at: time.Since(start).Seconds(), first: rep.first.Seconds(), total: rep.total.Seconds(), stream: req.stream,
				})
				if req.stream {
					p.frames += rep.frames
				}
			}
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start).Seconds()
	total.after = readMem()
	for c, p := range parts {
		if errs[c] != nil {
			return nil, errs[c]
		}
		total.samples = append(total.samples, p.samples...)
		total.frames += p.frames
		total.bytes += p.bytes
		total.ok += p.ok
		total.failed += p.failed
		if total.firstFailure == "" {
			total.firstFailure = p.firstFailure
		}
		total.refreshS = append(total.refreshS, p.refreshS...)
	}
	return total, nil
}

func refresher(eng *blinkdb.Engine) func() error {
	return func() error {
		_, ok, err := eng.RefreshSamples("sessions")
		if err == nil && !ok {
			err = fmt.Errorf("RefreshSamples: table has no samples")
		}
		return err
	}
}

// checkPass sends the first n requests one at a time to a fresh engine,
// grades each final frame, and runs the bare SQL through Engine.Query for
// the exact answer. A refresh workload refreshes at one and two thirds of
// the way, so its counts repeat too.
func checkPass(eng *blinkdb.Engine, base string, w workload, reqs []request, n int) (*grades, error) {
	g := &grades{}
	cl := newClient(base)
	defer cl.close()
	refresh := refresher(eng)
	for i := 0; i < n && i < len(reqs); i++ {
		if w.refresh && (i == n/3 || i == 2*n/3) {
			if err := refresh(); err != nil {
				return nil, err
			}
		}
		req := &reqs[i]
		rep, err := cl.do(req.body)
		if err != nil {
			g.attempted++
			g.fail("%s: %v", req.sql, err)
			continue
		}
		truth, err := eng.Query(req.sql)
		if err != nil {
			return nil, fmt.Errorf("ground truth for %q: %w", req.sql, err)
		}
		g.grade(req, rep, truth)
	}
	return g, nil
}

// timedSetup sets up cfg.setups times and keeps the last engine: setup_s
// is the median, so one slow set-up does not pass for a regression.
func timedSetup(cfg config) (setupResult, []float64, error) {
	var last setupResult
	times := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		last = setupResult{} // drop the previous engine before building the next
		s, err := setup(cfg.seed, cfg.rows, "")
		if err != nil {
			return last, nil, err
		}
		last = s
		times = append(times, s.totalS())
	}
	return last, times, nil
}

// timedSlices is how many equal parts the timed phase is cut into; every
// timing reported is the median part's.
const timedSlices = 10

// runTimed measures one workload end to end: set-up → check pass →
// warm-up → timed phase. No spans, no middleware: what runs is the
// program as shipped plus the clients.
func runTimed(cfg config, w workload) (*result, error) {
	su, setupTimes, err := timedSetup(cfg)
	if err != nil {
		return nil, err
	}
	memMB := heapMB()
	reqs := w.requests(cfg.seed)
	srv := newServer(su.eng)
	base, stop, err := listen(srv)
	if err != nil {
		return nil, err
	}
	defer stop()

	g, err := checkPass(su.eng, base, w, reqs, cfg.checks)
	if err != nil {
		return nil, err
	}
	warm := cfg.scaled(w.warmup)
	if _, err := drive(base, reqs, 0, cfg.clients, warm, 0, nil); err != nil {
		return nil, err
	}
	var refresh func() error
	if w.refresh {
		refresh = refresher(su.eng)
	}
	statsBefore := su.eng.Stats()
	p, err := drive(base, reqs, warm, cfg.clients, 0, time.Duration(cfg.seconds*float64(time.Second)), refresh)
	if err != nil {
		return nil, err
	}
	stats := su.eng.Stats().Delta(statsBefore)
	adm := srv.Metrics().Snapshot()

	res := &result{Workload: w.name}
	res.Attempted = g.attempted + p.ok + p.failed
	res.Failed = g.failed + p.failed
	res.Correct = res.Failed == 0
	for _, f := range []string{g.firstFailure, p.firstFailure} {
		if f != "" {
			res.Notes = append(res.Notes, "failure: "+f)
		}
	}
	whole, parts := p.all(), p.slices(cfg.seconds, timedSlices)
	ms := func(pick func(*timings) []float64, q float64) float64 {
		return medianOf(parts, func(t *timings) float64 { return percentile(pick(t), q) }) * 1e3
	}
	query := func(t *timings) []float64 { return t.query }
	ttfa := func(t *timings) []float64 { return t.ttfa }
	ttf := func(t *timings) []float64 { return t.ttf }
	res.add("setup_s", "s", median(setupTimes), len(setupTimes))
	res.add("mem_mb", "MB", memMB, 1)
	res.add("qps", "1/s", medianOf(parts, func(t *timings) float64 { return float64(t.ok) / t.seconds }), p.ok)
	res.add("query_p50_ms", "ms", ms(query, 0.50), len(whole.query))
	res.add("stream_ttfa_p50_ms", "ms", ms(ttfa, 0.50), len(whole.ttfa))
	res.add("stream_ttf_p50_ms", "ms", ms(ttf, 0.50), len(whole.ttf))
	res.add("ok_share", "ratio", 1-share(res.Failed, res.Attempted), res.Attempted)
	res.add("bound_met_share", "ratio", 1-share(g.boundMissed, g.bounded), g.bounded)
	res.add("coverage_share", "ratio", 1-share(g.coverageMiss, g.cells), g.cells)
	res.add("rows_scanned_per_query", "rows", float64(g.rowsScanned)/float64(max(1, g.attempted-g.failed)), g.attempted)

	// Ungated companions: free to read once the timed phase is over.
	res.addExtra("query_p95_ms", "ms", ms(query, 0.95), len(whole.query))
	res.addExtra("query_p99_ms", "ms", percentile(whole.query, 0.99)*1e3, len(whole.query))
	res.addExtra("stream_ttf_p95_ms", "ms", percentile(whole.ttf, 0.95)*1e3, len(whole.ttf))
	res.addExtra("failed_share", "ratio", share(res.Failed, res.Attempted), res.Attempted)
	res.addExtra("bound_miss_share", "ratio", share(g.boundMissed, g.bounded), g.bounded)
	res.addExtra("coverage_miss_share", "ratio", share(g.coverageMiss, g.cells), g.cells)
	res.addExtra("elp.missing_group_share", "ratio", share(g.missingGroups, g.truthGroups), g.truthGroups)
	res.addExtra("elp.false_exact_share", "ratio", share(g.falseExact, g.exactCells), g.exactCells)
	res.addExtra("setup.load_s", "s", su.loadS, 1)
	res.addExtra("setup.create_samples_s", "s", su.samplesS, 1)
	for _, m := range contentionMetrics(p, whole, stats, adm) {
		res.addExtra(m.Name, m.Unit, m.Value, m.N)
	}
	if adm.Shed > 0 || adm.QueueCancelled > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("admission shed %d, queue-cancelled %d (expected 0)", adm.Shed, adm.QueueCancelled))
	}
	if res.Failed > 0 || len(whole.query) == 0 || len(whole.ttf) == 0 {
		res.Correct = false
	}
	return res, nil
}
