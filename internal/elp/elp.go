// Package elp implements BlinkDB's runtime sample selection (§4): given a
// query with an error or response-time bound, it probes the smallest
// samples of candidate families, builds an Error-Latency Profile that
// predicts how error shrinks and latency grows with sample size, and picks
// the family and resolution that best satisfy the bounds.
//
// Choosing among candidate families compares one ratio per family (§4.1.1:
// rows matched ÷ rows read), so a candidate probe is a count — the query's
// predicate under a single COUNT(*) — and the query's own plan runs once,
// on the winner's smallest sample; that result seeds the profile.
//
// Every read of a disjunct from there on — the probe, its escalations, each
// streamed refinement, the final read — advances one cursor up the family's
// resolutions, folding only the deltas it has not read (§4.4; stream.go).
// Runtime.Run is the one entry point.
//
// Latency is attributed by the cluster simulator (internal/cluster) using
// the same linear-scaling model the paper fits at runtime (§4.2); error
// projections use the 1/√n law of Table 2.
package elp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"blinkdb/internal/catalog"
	"blinkdb/internal/cluster"
	"blinkdb/internal/exec"
	"blinkdb/internal/plancache"
	"blinkdb/internal/resultcache"
	"blinkdb/internal/sample"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/stats"
	"blinkdb/internal/storage"
	"blinkdb/internal/telemetry"
	"blinkdb/internal/types"
)

// shuffleFraction approximates shuffle (GROUP BY exchange) volume as 1% of
// bytes scanned.
const shuffleFraction = 0.01

// MinProbeRows is the smallest sample size worth probing: the probe uses
// the smallest resolution with at least this many rows, so the selectivity
// estimate carries statistical signal.
const MinProbeRows = 100

// Options tune the runtime. Zero values select paper-default behaviour.
type Options struct {
	// Scale maps physical stored bytes to logical bytes, for base-table
	// and sample reads alike (our tables are laptop-scale stand-ins for
	// TB-scale data).
	Scale float64
	// Workers sizes the executor's scan worker pool (default 1). Results
	// are bit-identical for any value: the executor folds row-budgeted
	// partial aggregates in a deterministic order.
	Workers int
	// PlanCacheSize enables the template-keyed prepared-query cache: up
	// to this many templates keep their compiled state, probe results and
	// Error-Latency Profiles across queries, amortizing the probe cost
	// that dominates bounded queries at high QPS. 0 (the default)
	// disables the cache, preserving the prepare-per-query pipeline — and
	// with it every pre-cache answer and latency, bit for bit. Cached
	// state lives only as long as the catalog version it was computed
	// under, so a sample refresh or rebuild of any table is never served
	// stale.
	PlanCacheSize int
	// ResultCacheSize enables the cross-query RESULT cache: up to this
	// many completed answers, keyed by (template key, full parameter
	// vector), so an exact replay of a recent query is served from memory
	// — no probe, no scan — until the catalog version moves (a change to
	// any table). Concurrent misses of one key share one execution
	// (singleflight). 0 (the default) disables the cache, preserving the
	// result-cache-free pipeline bit for bit.
	ResultCacheSize int
}

// Runtime executes bounded queries against a catalog on a simulated
// cluster. Run prepares a query's template — compiles it, probes the
// smallest samples and fits the Error-Latency Profile — then executes it:
// binds constants and bounds, picks the resolution and walks there. When
// Options.PlanCacheSize enables it, prepared state is reused across queries
// of the same template through a sharded LRU. Both caches belong to one
// catalog version (a generation): the first request after the version
// moves starts empty ones, so invalidation is catalog-wide — a change to
// one table retires the cached state of every table. All methods are safe
// for concurrent use.
type Runtime struct {
	cat  *catalog.Catalog
	clus *cluster.Cluster
	opt  Options

	// gen is the generation of the newest catalog version a request has
	// taken (see current).
	gen atomic.Pointer[generation]

	// prices memoizes the price of every whole window the runtime reads
	// (see price.go).
	prices priceMemo

	// Serving counters behind Stats(), guarded by one mutex so a snapshot
	// is internally consistent — per-counter atomics let Stats observe a
	// hits/misses pair that never coexisted, skewing hit rates under load.
	statMu sync.Mutex
	stats  Stats
}

// generation is the reusable state of one catalog version: the plan cache
// (template keys to prepared templates), the result cache ((template key,
// parameter vector) to completed answers) and the flights that collapse
// concurrent misses of one result key into a single execution. A cache is
// nil when disabled. Every entry of the live generation of version v was
// computed from catalog state v or later, which while the version is v is
// the current state, so no entry carries a freshness check of its own.
type generation struct {
	version uint64
	plans   *plancache.Cache[*prepared]
	results *plancache.Cache[*resultEntry]
	flights resultcache.Flights[*resultEntry]
}

// current returns the generation of the catalog's current version,
// installing an empty one when the version has moved past the live one's.
// It loads the generation before it reads the version, so the generation
// is never ahead of the version read, and replaces it only by
// compare-and-swap, so an older generation never lands over a newer one.
// A request takes its generation once and writes only into it: a Put that
// races a version change lands in a dead generation, which is harmless.
func (rt *Runtime) current() *generation {
	for {
		gen := rt.gen.Load()
		v := rt.cat.Version()
		if gen.version == v {
			return gen
		}
		if next := rt.newGeneration(v); rt.gen.CompareAndSwap(gen, next) {
			return next
		}
	}
}

// newGeneration returns an empty generation of catalog version v.
func (rt *Runtime) newGeneration(v uint64) *generation {
	return &generation{
		version: v,
		plans:   plancache.New[*prepared](rt.opt.PlanCacheSize),
		results: plancache.New[*resultEntry](rt.opt.ResultCacheSize),
	}
}

// resultEntry is one cached answer: the response that produced it, with
// its plan-cache outcome in Cache. q is the query answered and prep the
// query that prepared the state it ran under: what a warmup file replays
// (persist.go). hit is what a hit of it returns (see Response.Shared);
// served is the serving layer's immutable form of the answer (for
// blinkdb.Engine, the Result a hit returns and its wire encoding), built by
// the first hit that asks. Both die with the entry.
type resultEntry struct {
	resp    *Response
	q, prep *sqlparser.Query

	hit        *Response
	servedOnce sync.Once
	served     any
}

// newResultEntry caches resp, the answer to q that pq's state produced.
func newResultEntry(resp *Response, q *sqlparser.Query, pq *prepared) *resultEntry {
	ent := &resultEntry{resp: resp, q: q, prep: pq.prepQ}
	ent.hit = ent.view("hit")
	ent.hit.ent = ent
	return ent
}

// view is a struct copy of the entry's response with the result-cache
// outcome set: a miss keeps the plan-cache outcome of the execution, a
// hit or a shared answer consulted no plan.
func (ent *resultEntry) view(outcome string) *Response {
	resp := *ent.resp
	resp.ResultCache = outcome
	if outcome != "miss" {
		resp.Cache = ""
	}
	return &resp
}

// New creates a runtime; Options fields out of range take their defaults.
func New(cat *catalog.Catalog, clus *cluster.Cluster, opt Options) *Runtime {
	if opt.Scale <= 0 {
		opt.Scale = 1
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	rt := &Runtime{cat: cat, clus: clus, opt: opt, stats: Stats{AnswersByLevel: map[int]int64{}}}
	rt.gen.Store(rt.newGeneration(cat.Version()))
	return rt
}

// Decision records how one conjunctive sub-query was planned.
type Decision struct {
	// View is the chosen sample resolution (zero-value when the base
	// table was used).
	View sample.View
	// UsedBase marks execution on the full base table (unbounded query
	// or no usable sample).
	UsedBase bool
	// Probed lists the families probed, with their selectivity ratios.
	Probed []ProbeInfo
	// ProbeLatency is the simulated seconds spent probing (parallel max).
	ProbeLatency float64
	// ReadLatency is the simulated seconds reading the chosen sample
	// (delta-only when reuse applies).
	ReadLatency float64
	// RequiredRows is the matched-row target derived from the error
	// bound (0 when no error bound).
	RequiredRows float64
	// PredictedBound is the ELP-projected worst-group CI half-width at
	// the chosen resolution (probe stderr scaled by the 1/√n law, times
	// the z score) — what the profile promised before scanning; 0 for
	// exact/base-table execution. Against the result's reported
	// half-width it is the calibration signal Engine.Telemetry records.
	PredictedBound float64
	// Reason summarises the choice for EXPLAIN-style output.
	Reason string
}

// Latency returns the decision's total simulated seconds.
func (d Decision) Latency() float64 { return d.ProbeLatency + d.ReadLatency }

// ProbeInfo is one family probe outcome.
type ProbeInfo struct {
	Family      *sample.Family
	Selectivity float64 // matched/read on the family's smallest sample
	Matched     int64
}

// Response is the full outcome of one query. A Response, its Decisions and
// its Result are read-only once built: a cached answer's are shared by
// every caller it is served to.
type Response struct {
	// Result holds the estimates.
	Result *exec.Result
	// Decisions has one entry per conjunctive disjunct (§4.1.2).
	Decisions []Decision
	// SimLatency is the simulated wall-clock seconds (disjuncts run in
	// parallel: max over decisions).
	SimLatency float64
	// Confidence is the CI level used.
	Confidence float64
	// Cache reports the plan-cache outcome: "hit" when prepared state was
	// reused, "miss" when this query prepared it, "" when the cache is
	// disabled — or when the whole answer came from the result cache,
	// which never consults the plan pipeline.
	Cache string
	// ResultCache reports the result-cache outcome: "hit" when a cached
	// answer for this exact (template, parameters) pair was served,
	// "miss" when this query executed (and cached) it, "shared" when a
	// concurrent miss's singleflight execution supplied the answer, ""
	// when the result cache is disabled.
	ResultCache string

	// ent marks Run's view of a result-cache hit (see Shared).
	ent *resultEntry
}

// Shared reports whether r is Run's view of a result-cache hit, whose
// entry keeps a served form (see Served).
func (r *Response) Shared() bool { return r.ent != nil }

// Served returns the served form of a shared hit's cache entry, built by
// build on the entry's first call and immutable: every hit gets it.
func (r *Response) Served(build func() any) any {
	r.ent.servedOnce.Do(func() { r.ent.served = build() })
	return r.ent.served
}

// Run plans and executes q, returning estimates with error bars and a
// simulated latency. The caller parses and normalizes q (key, params:
// sqlparser.Normalize's) and keeps the clock: nothing is observed here (the
// engine records each answer in its telemetry).
//
// With the plan cache enabled, a template prepared before reuses its
// compiled state, probe results and ELP fit. With the result cache enabled,
// an exact replay — same template and parameters — is served from memory,
// and concurrent misses of one key share one execution. Every Response Run
// returns or emits is read-only: a cached answer's Result and Decisions are
// shared by every caller it is served to, and only its Cache and
// ResultCache fields are its own. A result-cache hit comes back Shared, so
// a serving layer can answer it from the entry's Served form. Run takes
// the generation of the catalog's current version once (current) and
// consults no other, so state from before a catalog change — a sample
// refresh, rebuild or drop, a table (re)load — is never served: the
// request prepares afresh.
//
// emit, when non-nil, receives each refinement before the final answer,
// with its level (the max across disjuncts); an emit error aborts the run.
// Only an execution streams: a cache hit, a shared answer or an exact
// template answers once. The final answer is the same with emit or without.
//
// A context cancelled before the call returns ctx.Err() having done
// nothing; one cancelled mid-query stops the scans within one block range,
// or before the next refinement. Either bumps Stats.Cancelled and returns
// no partial answer. tr, when non-nil, gets a span per pipeline phase.
func (rt *Runtime) Run(ctx context.Context, q *sqlparser.Query, key string, params []types.Value, tr *telemetry.Trace, emit func(*Response, int) error) (*Response, error) {
	// An already-cancelled context never enters the pipeline: no cache
	// consultation, no scan (the QueryCtx promptness pin).
	if err := ctx.Err(); err != nil {
		rt.bump(&rt.stats.Cancelled)
		return nil, err
	}
	resp, err := rt.runKeyed(ctx, rt.current(), q, key, params, tr.Root(), emit)
	if err != nil && isCancellation(err) {
		rt.bump(&rt.stats.Cancelled)
	}
	return resp, err
}

// isCancellation reports whether an error is a context cancellation or
// deadline expiry (possibly wrapped).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runKeyed is Run's body in generation gen under an optional parent span
// (nil when untraced). Refinements flow through emit (nil when not
// streaming) on the executing paths only: cache hits and singleflight
// shares stream nothing.
func (rt *Runtime) runKeyed(ctx context.Context, gen *generation, q *sqlparser.Query, key string, params []types.Value, root *telemetry.Span, emit func(*Response, int) error) (*Response, error) {
	if gen.results == nil {
		resp, _, err := rt.runPrepared(ctx, gen, q, key, params, root, emit)
		return resp, err
	}
	rkey := resultKey(key, params)
	lsp := root.Child("result-cache lookup")
	if ent, ok := gen.results.Get(rkey); ok {
		lsp.End()
		lsp.Note("result=hit")
		rt.bump(&rt.stats.ResultCacheHits)
		return ent.hit, nil
	}
	lsp.End()
	if emit != nil {
		// Refinements only flow on an executing path, whose final is a
		// result=miss — mark them the same way so a session's answers agree
		// about where they came from.
		inner := emit
		emit = func(resp *Response, level int) error {
			resp.ResultCache = "miss"
			return inner(resp, level)
		}
	}
	var cachedHit bool
	fsp := root.Child("execute")
	ent, shared, err := gen.flights.Do(rkey, func() (*resultEntry, error) {
		var err error
		var e *resultEntry
		// Only the singleflight leader's closure runs, so only the
		// leader's trace carries the pipeline spans (and only the leader
		// streams); waiters' "execute" spans cover their wait and are
		// noted result=shared below.
		e, cachedHit, err = rt.resultLeader(ctx, gen, q, key, params, rkey, fsp, emit)
		return e, err
	})
	fsp.End()
	if err != nil {
		// A leader cancelled mid-flight poisons the shared error for every
		// waiter, but a waiter whose OWN context is still live owes its
		// caller an answer (and, streaming, the refinements too): run a
		// private leader pass outside the (landed) flight. Real query
		// errors are shared as-is — re-executing would reproduce them.
		if !shared || !isCancellation(err) || ctx.Err() != nil {
			return nil, err
		}
		rsp := root.Child("cancelled-leader re-execute")
		ent, cachedHit, err = rt.resultLeader(ctx, gen, q, key, params, rkey, rsp, emit)
		rsp.End()
		if err != nil {
			return nil, err
		}
		shared = false
	}
	switch {
	case cachedHit:
		rt.bump(&rt.stats.ResultCacheHits)
		fsp.Note("result=hit")
		return ent.hit, nil
	case shared:
		rt.bump(&rt.stats.ResultCacheShared)
		fsp.Note("result=shared")
		return ent.view("shared"), nil
	}
	fsp.Note("result=miss")
	return ent.view("miss"), nil
}

// resultKey is the result-cache key of the query with template key and
// parameters params.
func resultKey(key string, params []types.Value) string {
	return key + "\x1e" + sqlparser.ParamsKey(params)
}

// resultLeader is the singleflight leader's body in generation gen:
// re-check the cache, then execute and cache on a true miss. The re-check
// matters — a caller descheduled between its cache miss and its Do call
// can find the flight already landed and become a second "leader"; without
// the re-check it would re-run the whole pipeline for an answer that is
// already cached (and skew the exactly-one-execution Stats contract).
// cached reports whether the answer came from the cache (a hit) rather
// than execution.
func (rt *Runtime) resultLeader(ctx context.Context, gen *generation, q *sqlparser.Query, key string, params []types.Value, rkey string, sp *telemetry.Span, emit func(*Response, int) error) (*resultEntry, bool, error) {
	if cached, ok := gen.results.Get(rkey); ok {
		return cached, true, nil
	}
	resp, pq, err := rt.runPrepared(ctx, gen, q, key, params, sp, emit)
	if err != nil {
		return nil, false, err
	}
	// Count the miss only for executions that enter the cache, like the
	// plan cache's convention.
	rt.bump(&rt.stats.ResultCacheMisses)
	ent := newResultEntry(resp, q, pq)
	gen.results.Put(rkey, ent)
	return ent, false, nil
}

// runPrepared is the prepare/execute pipeline of a run in generation gen —
// plan-cache lookup (when enabled), prepare on miss, execute — returning the
// response, its Cache set to the plan-cache outcome, and the prepared state
// the answer was computed under. emit is execute's.
func (rt *Runtime) runPrepared(ctx context.Context, gen *generation, q *sqlparser.Query, key string, params []types.Value, sp *telemetry.Span, emit func(*Response, int) error) (*Response, *prepared, error) {
	if gen.plans != nil {
		lsp := sp.Child("plan-cache lookup")
		if pq, ok := gen.plans.Get(key); ok {
			lsp.End()
			resp, err := rt.execute(ctx, pq, q, params, sp, emit)
			if err == nil {
				lsp.Note("cache=hit")
				rt.bump(&rt.stats.PlanCacheHits)
				resp.Cache = "hit"
				return resp, pq, nil
			}
			if err != errTemplateMismatch {
				return nil, nil, err
			}
			// Defensive: equal keys should imply equal shape; if not,
			// fall through and re-prepare. (The mismatch is detected
			// before any refinement is emitted.)
		}
		lsp.End() // idempotent on the template-mismatch fall-through
		lsp.Note("cache=miss")
	}
	pq, err := rt.prepare(ctx, q, key, params, sp)
	if err != nil {
		return nil, nil, err
	}
	if gen.plans != nil {
		// Count the miss only for queries that actually entered the cache;
		// errored prepares would otherwise skew the hit rate.
		rt.bump(&rt.stats.PlanCacheMisses)
		gen.plans.Put(key, pq)
	}
	resp, err := rt.execute(ctx, pq, q, params, sp, emit)
	if err == nil && gen.plans != nil {
		resp.Cache = "miss"
	}
	return resp, pq, err
}

// selectFamily implements §4.1.1: prefer the covering stratified family
// with the fewest columns; otherwise probe every candidate's smallest
// sample — one after another, on the calling goroutine — and take the one
// with the highest matched/read ratio. The comparison reads two integers
// off each candidate, so with several candidates each is probed by
// exec.Count (the blocks, rows and matches the plan's run would report,
// from selection alone) and the plan itself then runs once, on the
// winner's probe view; a lone candidate runs the plan directly. Either
// run starts the winner's walk; the third and fourth return values are its
// answer and chain (nil when no probe ran), which prepareConjunctive carries
// on, so each (family, view) executes the plan at most once per query.
func (rt *Runtime) selectFamily(ctx context.Context, entry *catalog.Entry, plan *exec.Plan,
	phi types.ColumnSet, conf float64, joins []exec.JoinSpec, sp *telemetry.Span) (*sample.Family, Decision, *exec.Result, *exec.Chain, error) {

	var dec Decision
	if len(entry.Families) == 0 {
		return nil, dec, nil, nil, nil
	}

	// Queries with no filter/group columns have no stratification to
	// exploit; the uniform family's equal weights give the lowest
	// estimator variance per row read.
	if phi.Empty() {
		if u := entry.Uniform(); u != nil {
			dec.Reason = "no filter/group columns: uniform family"
			return u, dec, nil, nil, nil
		}
	}

	if covering := entry.CoveringFamilies(phi); len(covering) > 0 {
		f := covering[0]
		dec.Reason = fmt.Sprintf("covering family %s (fewest columns among %d covering)", f.Phi, len(covering))
		return f, dec, nil, nil, nil
	}

	// No covering family: every family's smallest sample is probed
	// (§4.1.1; entry.Families is non-empty here). §4.1.1 runs the probes in
	// parallel, which is what ProbeLatency prices: the max, not the sum.
	cands := entry.Families
	var psp *telemetry.Span
	if sp != nil {
		psp = sp.Child(fmt.Sprintf("probe candidates=%d", len(cands)))
	}
	defer psp.End()
	var walk *cursor // the plan's run: a lone candidate's probe, else the winner's
	best, uniform := -1, -1
	bestRatio, uniformRatio := -1.0, -1.0
	for i, f := range cands {
		var csp *telemetry.Span
		if psp != nil {
			csp = psp.Child("probe " + f.Label())
		}
		pv := rt.probeView(f)
		var c exec.Counts
		var err error
		if len(cands) == 1 {
			walk = &cursor{plan: plan, joins: joins, entry: entry, fam: f, conf: conf, probe: true}
			var res *exec.Result
			if res, err = rt.advance(ctx, walk, pv.Level, csp); err == nil {
				c = exec.Counts{Blocks: len(viewInput(pv, plan).Blocks), RowsScanned: res.RowsScanned, RowsMatched: res.RowsMatched}
			}
		} else {
			c, err = rt.count(ctx, plan, exec.FromView(pv), joins, csp)
		}
		csp.End()
		if err != nil {
			return nil, dec, nil, nil, err
		}
		dec.ProbeLatency = max(dec.ProbeLatency, probePrice(c.Blocks))
		ratio := c.Selectivity()
		dec.Probed = append(dec.Probed, ProbeInfo{Family: f, Selectivity: ratio, Matched: c.RowsMatched})
		if ratio > bestRatio {
			bestRatio, best = ratio, i
		}
		if f.IsUniform() {
			uniform, uniformRatio = i, ratio
		}
	}
	// Tie-break: when the uniform family matches the best stratified
	// ratio (within 10%), prefer it — for predicates uncorrelated with
	// any stratification column the ratios converge, and the uniform
	// sample's equal weights give strictly lower estimator variance than
	// a stratified sample's spread of 1/rate weights.
	if uniform >= 0 && !cands[best].IsUniform() && uniformRatio >= 0.9*bestRatio {
		best, bestRatio = uniform, uniformRatio
	}
	dec.Reason = fmt.Sprintf("no covering family: probed %d families, best selectivity %.4f on %s",
		len(cands), bestRatio, cands[best].Label())
	if walk == nil {
		// The winner's probe view, read again for what the count left out:
		// the groups and estimates resolution selection extrapolates from,
		// and — at the probe's own resolution — the answer itself. Part of
		// probing: ProbeLatency priced this view's read already.
		var fsp *telemetry.Span
		if psp != nil {
			fsp = psp.Child("probe " + cands[best].Label() + " full")
		}
		walk = &cursor{plan: plan, joins: joins, entry: entry, fam: cands[best], conf: conf, probe: true}
		_, err := rt.advance(ctx, walk, rt.probeView(cands[best]).Level, fsp)
		fsp.End()
		if err != nil {
			return nil, dec, nil, nil, err
		}
	}
	return cands[best], dec, walk.res, walk.chain, nil
}

// requiredRows converts the error bound into a matched-row target using
// the Table 2 extrapolation: stderr ∝ 1/√n. The worst (group, aggregate)
// pair dominates.
func (rt *Runtime) requiredRows(probe *exec.Result, eb *sqlparser.ErrorBound) float64 {
	z := stats.ZForConfidence(eb.Confidence)
	need := 0.0
	for _, g := range probe.Groups {
		for _, e := range g.Estimates {
			if e.Rows == 0 {
				continue
			}
			var n float64
			if e.Exact {
				// The probe already holds every matching row of this
				// group; keeping them all keeps the answer exact.
				n = float64(e.Rows)
			} else {
				targetBound := eb.Bound
				if eb.Relative {
					targetBound = eb.Bound * math.Abs(e.Point)
					if targetBound == 0 {
						continue
					}
				}
				targetStdErr := targetBound / z
				n = stats.RequiredRowsForStdErr(e.StdErr, float64(e.Rows), targetStdErr)
				// Stderr estimated from a handful of rows is unreliable;
				// apply a floor that shrinks once the probe carries
				// signal.
				switch {
				case e.Rows < 8 && n < 30:
					n = 30
				case n < 10:
					n = 10
				}
			}
			// n is a PER-GROUP requirement; levelForRows reasons in
			// query-total matched rows, so scale by the group's share of
			// the probe's matches.
			if probe.RowsMatched > 0 {
				n *= float64(probe.RowsMatched) / float64(e.Rows)
			}
			if n > need && !math.IsInf(n, 1) {
				need = n
			}
		}
	}
	return need
}

// levelForRows finds the smallest resolution whose expected matched rows
// reach need (the paper's n·(Km/n_{i,m}) rule inverted). The second return
// value is false when even the largest resolution falls short.
func (rt *Runtime) levelForRows(fam *sample.Family, probe *exec.Result, need float64, pv sample.View) (int, bool) {
	if need == 0 {
		return 0, true
	}
	probeRows := float64(probe.RowsMatched)
	if probeRows == 0 {
		return fam.Resolutions() - 1, false // no signal: be conservative
	}
	for lvl := 0; lvl < fam.Resolutions(); lvl++ {
		if expectedMatches(fam, probe, lvl, pv) >= need {
			return lvl, true
		}
		// Census detection: a resolution whose cap is at least the
		// largest stratum frequency among matched rows contains EVERY
		// matching base-table row, so its answer is exact (§3.1:
		// F(x) ≤ K ⇒ exact) and any error bound is satisfied. The
		// stratum frequencies come from sample metadata, so this test is
		// noise-free.
		if f := probe.MaxMatchedStratumFreq; f > 0 && fam.View(lvl).Cap() >= f &&
			!fam.IsUniform() {
			return lvl, true
		}
	}
	return fam.Resolutions() - 1, false
}

// expectedMatches projects the matched rows at a resolution. Matched rows
// in capped strata grow proportionally to the cap K (that is precisely the
// guarantee of S(φ,K)); the projection is clamped by the HT estimate of
// the true base-table match count, which uncapped strata cannot exceed.
func expectedMatches(fam *sample.Family, probe *exec.Result, lvl int, pv sample.View) float64 {
	probeRows := float64(probe.RowsMatched)
	capProbe := float64(pv.Cap())
	if capProbe <= 0 {
		return probeRows
	}
	expected := probeRows * float64(fam.View(lvl).Cap()) / capProbe
	if probe.WeightedMatched > 0 && expected > probe.WeightedMatched {
		expected = probe.WeightedMatched
	}
	return expected
}

// predictedBound projects the worst-group CI half-width the chosen
// resolution should deliver: the probe's worst non-exact stderr scaled to
// the level's expected matches by the 1/√n law, times the z score —
// Table 2's extrapolation, from the probe. Deterministic and derived
// only from prepared probe state, so it is identical with telemetry on or
// off (the bit-identity invariant). 0 when the probe carries no
// statistical signal (no matches, or all-exact estimates).
func predictedBound(fam *sample.Family, probe *exec.Result, level int, pv sample.View, conf float64) float64 {
	probeMatched := float64(probe.RowsMatched)
	if probeMatched <= 0 {
		return 0
	}
	worstStd := 0.0
	for _, g := range probe.Groups {
		for _, e := range g.Estimates {
			if !e.Exact && e.StdErr > worstStd {
				worstStd = e.StdErr
			}
		}
	}
	if worstStd == 0 {
		return 0
	}
	em := expectedMatches(fam, probe, level, pv)
	if em <= 0 {
		return 0
	}
	return worstStd * math.Sqrt(probeMatched/em) * stats.ZForConfidence(conf)
}

// levelForTime finds the largest resolution executable within the bound,
// given what is spent anyway — the probe, a join's broadcast (§2.1) — and
// §4.4 delta reuse: a level costs only its delta past the probe's.
func (rt *Runtime) levelForTime(entry *catalog.Entry, fam *sample.Family, plan *exec.Plan, budget, spent float64, pv sample.View) int {
	best := 0
	for lvl := 0; lvl < fam.Resolutions(); lvl++ {
		if spent+rt.readPrice(entry, plan, fam.View(lvl).DeltaBlocks(pv)) <= budget {
			best = lvl
		}
	}
	return best
}

// runPlan executes plan over in — the base table — joining dimension
// tables when the query has JOIN clauses (§2.1: fact-side sampling, exact
// broadcast dimensions). probe counts it as an ELP probe. With sp non-nil
// the scan records a span tree (per-range partials + merge) beneath it.
// The only possible error is ctx.Err(): a cancelled scan returns no partial
// result. PlanExecs counts the attempt either way — a cancelled scan may
// have done most of its work.
func (rt *Runtime) runPlan(ctx context.Context, plan *exec.Plan, in exec.Input, conf float64, joins []exec.JoinSpec, probe bool, sp *telemetry.Span) (*exec.Result, error) {
	rt.countExec(probe)
	ssp := scanSpan(sp, in)
	res, err := exec.RunJoin(ctx, plan, in, joins, conf, rt.opt.Workers, ssp)
	ssp.End()
	return res, err
}

// extend is runPlan for a Chain: in's blocks folded into c, and the
// answer at in's resolution.
func (rt *Runtime) extend(ctx context.Context, c *exec.Chain, in exec.Input, conf float64, probe bool, sp *telemetry.Span) (*exec.Result, error) {
	rt.countExec(probe)
	ssp := scanSpan(sp, in)
	res, err := c.Extend(ctx, in, conf, rt.opt.Workers, ssp)
	ssp.End()
	return res, err
}

// count is runPlan for a candidate's probe: exec.Count of plan over in,
// counted as an ELP probe. Traced, in is pruned first, so that its scan
// span can name the blocks the count reads.
func (rt *Runtime) count(ctx context.Context, plan *exec.Plan, in exec.Input, joins []exec.JoinSpec, sp *telemetry.Span) (exec.Counts, error) {
	rt.countExec(true)
	if sp == nil {
		return exec.Count(ctx, plan, in, joins)
	}
	in = in.Pruned(plan)
	ssp := scanSpan(sp, in)
	c, err := exec.Count(ctx, plan, in, joins)
	ssp.End()
	return c, err
}

// scanSpan is the span a scan of in records under sp (nil when untraced).
func scanSpan(sp *telemetry.Span, in exec.Input) *telemetry.Span {
	if sp == nil {
		return nil
	}
	return sp.Child(fmt.Sprintf("scan blocks=%d", len(in.Blocks)))
}

// checkJoinAdmissible enforces §2.1's join rules: each join needs either a
// stratified family on the fact table containing the join key, or a
// dimension table that fits in the cluster's aggregate memory.
func (rt *Runtime) checkJoinAdmissible(entry *catalog.Entry, q *sqlparser.Query, joins []exec.JoinSpec) error {
	cacheBytes := float64(rt.clus.Config().Nodes) * rt.clus.Config().MemCacheBytesPerNode
	for i, j := range joins {
		key := q.Joins[i].LeftCol
		keyInFamily := false
		for _, f := range entry.Stratified() {
			if f.Phi.Contains(key) {
				keyInFamily = true
				break
			}
		}
		fits := float64(j.Dim.Bytes())*rt.opt.Scale <= cacheBytes
		if !keyInFamily && !fits {
			return fmt.Errorf("elp: join on %s unsupported: no stratified sample contains the join key %q and table %q does not fit in cluster memory (§2.1)",
				q.Joins[i].Table, key, q.Joins[i].Table)
		}
	}
	return nil
}

// broadcastCost prices shipping every dimension table to every node once
// per query (the §2.1 in-memory dimension path).
func (rt *Runtime) broadcastCost(joins []exec.JoinSpec) float64 {
	if len(joins) == 0 {
		return 0
	}
	var bytes float64
	for _, j := range joins {
		bytes += float64(j.Dim.Bytes()) * rt.opt.Scale
	}
	cfg := rt.clus.Config()
	return bytes / (float64(cfg.Nodes) * cluster.BlinkDBEngine.NetworkMBps * 1e6)
}

// factColumns restricts a column set to those present in the fact schema.
func factColumns(cs types.ColumnSet, fact *types.Schema) types.ColumnSet {
	var keep []string
	for _, c := range cs.Columns() {
		if fact.Index(c) >= 0 {
			keep = append(keep, c)
		}
	}
	return types.NewColumnSet(keep...)
}

// viewInput builds a zone-pruned executor input for one view (the §3.1
// clustered layout): blocks whose per-column min/max cannot satisfy the
// predicate's conjunctive bounds are neither read nor priced.
func viewInput(v sample.View, plan *exec.Plan) exec.Input {
	return exec.FromView(v).Pruned(plan)
}

// PriceBlockRead prices reading blocks on the cluster under the BlinkDB
// engine profile: bytes are scaled to logical size, spread per the
// blocks' node placement, with a shuffle term proportional to bytes
// scanned, a cross-node merge fan-in term over the nodes holding blocks,
// and a remote-read term for the bytes the executor's node-affine
// schedule cannot read locally (ranges whose blocks straddle their owner
// node). This is the single pricing path shared by the runtime's latency
// attribution and the experiments' placement ablations; an error means a
// block carries a negative node id.
func PriceBlockRead(clus *cluster.Cluster, blocks []*storage.Block, scale float64) (float64, error) {
	if len(blocks) == 0 {
		return 0, nil
	}
	var total int64
	for _, b := range blocks {
		total += b.Bytes
	}
	shuffle := float64(total) * scale * shuffleFraction
	work, err := clus.WorkFromBlocks(blocks, scale, shuffle)
	if err != nil {
		return 0, err
	}
	// Latency attribution follows the executor's affine schedule: bytes a
	// shard cannot read on its owner node cross the network.
	_, shards := exec.ScanShards(blocks)
	work.RemoteBytes = float64(storage.RemoteBytes(shards)) * scale
	return clus.Latency(cluster.BlinkDBEngine, work), nil
}

// latencyOf prices a block read — base table or sample — via
// PriceBlockRead at the runtime's scale. An empty block list costs
// nothing — §4.4: upgrading to the already-probed resolution reads nothing
// and launches no job; the probe's answer is reused as-is.
func (rt *Runtime) latencyOf(blocks []*storage.Block) float64 {
	lat, err := PriceBlockRead(rt.clus, blocks, rt.opt.Scale)
	if err != nil {
		// Tables pass storage.Validate at build time, so a negative node
		// id here is a programming error, not a user-recoverable one.
		panic(fmt.Sprintf("elp: %v", err))
	}
	return lat
}

// probePrice prices a probe's run that reads read blocks of a probe view:
// job overhead alone, or nothing when it reads no block. Probes run on
// cluster-memory-resident smallest samples, which §4.1.1 treats as "very
// fast"; pricing them at job overhead keeps the probe economics of the
// paper's scale.
func probePrice(read int) float64 {
	if read == 0 {
		return 0
	}
	return cluster.BlinkDBEngine.JobOverheadSec
}

// probeView returns the family's probe resolution: the smallest level with
// at least MinProbeRows rows (or the largest level if none reaches it).
func (rt *Runtime) probeView(fam *sample.Family) sample.View {
	for lvl := 0; lvl < fam.Resolutions(); lvl++ {
		if v := fam.View(lvl); v.Rows() >= MinProbeRows {
			return v
		}
	}
	return fam.Largest()
}
