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

	"time"

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
	// Confidence is the default CI level for queries that don't set one.
	Confidence float64
	// DeltaReuse, when true (default), charges only the delta blocks
	// when upgrading from the probe resolution (§4.4); false recharges
	// the full chosen sample — the ablation of intermediate-data reuse.
	DeltaReuse *bool
	// Scale maps physical stored bytes to logical bytes, for base-table
	// and sample reads alike (our tables are laptop-scale stand-ins for
	// TB-scale data).
	Scale float64
	// ProbeOverheadOnly prices probe runs at job overhead alone,
	// reflecting §4.1.1's assumption that the smallest samples fit in
	// aggregate memory and "running Q on these samples is very fast".
	// Off by default (probes priced like any other read).
	ProbeOverheadOnly bool
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
	// state is epoch-validated against the catalog on every hit, so a
	// sample refresh or rebuild is never served stale.
	PlanCacheSize int
	// ResultCacheSize enables the cross-query RESULT cache: up to this
	// many completed answers are kept keyed by (template key, full
	// parameter vector), so an exact replay of a recent query is served
	// from memory — no probe, no scan — after validating the catalog
	// epochs of every table the answer depends on. Concurrent misses of
	// one key are collapsed by singleflight: the scan runs once and every
	// caller shares (a private copy of) the answer. 0 (the default)
	// disables the cache, preserving the result-cache-free pipeline bit
	// for bit. Served answers are deep copies (copy-on-return), so
	// callers can never mutate cached state.
	ResultCacheSize int
	// ResultCacheTTL bounds the wall-clock age of served results on top
	// of epoch validation (epochs track sample rebuilds; the TTL covers
	// deployments whose base data drifts underneath unchanged samples).
	// 0 (the default) means no TTL: entries live until evicted or
	// epoch-invalidated.
	ResultCacheTTL time.Duration
	// Telemetry, when non-nil, receives one Observation per completed Run
	// (keyed by template): wall-clock and predicted latency, rows/bytes
	// scanned, and predicted-vs-observed error half-width. nil (the
	// default) disables recording with zero overhead on the query path —
	// answers are bit-identical either way (the PredictedBound projection
	// is computed unconditionally).
	Telemetry *telemetry.Registry
}

func (o Options) normalize() Options {
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Confidence = 0.95
	}
	if o.DeltaReuse == nil {
		v := true
		o.DeltaReuse = &v
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.PlanCacheSize < 0 {
		o.PlanCacheSize = 0
	}
	if o.ResultCacheSize < 0 {
		o.ResultCacheSize = 0
	}
	if o.ResultCacheTTL < 0 {
		o.ResultCacheTTL = 0
	}
	return o
}

// Runtime executes bounded queries against a catalog on a simulated
// cluster via an explicit prepare → execute pipeline: Prepare compiles a
// query template, probes the smallest samples and fits the Error-Latency
// Profile; Execute binds constants and bounds, re-runs only resolution
// selection and the chosen view scan. Run composes the two, and — when
// Options.PlanCacheSize enables it — reuses prepared state across queries
// of the same template through a sharded LRU with catalog-epoch
// invalidation. All methods are safe for concurrent use.
type Runtime struct {
	cat  *catalog.Catalog
	clus *cluster.Cluster
	opt  Options

	// cache maps template keys to prepared queries; nil when disabled.
	cache *plancache.Cache[*PreparedQuery]
	// results maps (template key, parameter vector) to completed answers;
	// nil when disabled. flights collapses concurrent misses of one
	// result key into a single execution.
	results *resultcache.Cache[*resultEntry]
	flights resultcache.Flights[*resultEntry]

	// prices memoizes the price of every whole window the runtime reads
	// (see price.go).
	prices priceMemo

	// Serving counters behind Stats(), guarded by one mutex so a snapshot
	// is internally consistent — per-counter atomics let Stats observe a
	// hits/misses pair that never coexisted, skewing HitRate under load.
	statMu sync.Mutex
	stats  statCounters
}

// resultEntry is one cached answer: the canonical (never-annotated,
// never-mutated) response, the plan-cache note of the execution that
// produced it, and the per-table epochs it was computed against. The
// entry is servable only while every dep's catalog epoch is unchanged.
// hit is what a hit of it returns (see Response.Shared); served is the
// serving layer's immutable form of the answer (for blinkdb.Engine, the
// Result a hit returns and its wire encoding), built by the first hit
// that asks. Both die with the entry and neither is persisted.
type resultEntry struct {
	resp *Response
	note string
	deps []tableDep

	hit        *Response
	servedOnce sync.Once
	served     any
}

func newResultEntry(resp *Response, note string, deps []tableDep) *resultEntry {
	ent := &resultEntry{resp: resp, note: note, deps: deps}
	hit := *resp
	hit.ResultCache, hit.ent = "hit", ent
	ent.hit = &hit
	return ent
}

// New creates a runtime.
func New(cat *catalog.Catalog, clus *cluster.Cluster, opt Options) *Runtime {
	opt = opt.normalize()
	return &Runtime{
		cat: cat, clus: clus, opt: opt,
		cache:   plancache.New[*PreparedQuery](opt.PlanCacheSize),
		results: resultcache.New[*resultEntry](opt.ResultCacheSize, opt.ResultCacheTTL),
	}
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
	// the z score) — what the profile promised before scanning. 0 for
	// exact/base-table execution. Computed unconditionally and
	// deterministically, so it is identical with telemetry on or off;
	// comparing it against the result's reported half-width is the
	// calibration signal the adaptive loop consumes.
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

// Response is the full outcome of one query.
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

	// ent marks RunKeyed's shared view of a result-cache hit (see Shared).
	ent *resultEntry
}

// Shared reports whether r is RunKeyed's view of a result-cache hit: its
// Result and Decisions are the cache's own, read-only and unannotated.
func (r *Response) Shared() bool { return r.ent != nil }

// Materialize returns a private deep copy of a shared hit, annotated
// result=hit — the response Run returns for the same query.
func (r *Response) Materialize() *Response {
	resp := r.ent.resp.clone()
	annotateResult(resp, "hit")
	return resp
}

// Served returns the served form of a shared hit's cache entry, built by
// build on the entry's first call and immutable: every hit gets it.
func (r *Response) Served(build func() any) any {
	r.ent.servedOnce.Do(func() { r.ent.served = build() })
	return r.ent.served
}

// Run parses nothing: q must already be parsed. It plans and executes the
// query returning estimates with error bars and a simulated latency.
//
// Run is Prepare + Execute, wrapped by up to two reuse layers. With the
// plan cache enabled, the Prepare half is amortized across queries
// sharing a template: a hit reuses the cached compiled state, probe
// results and ELP fit (after validating catalog epochs — stale state from
// before a sample refresh is re-prepared, never served) and pays only
// resolution selection plus the chosen view scan. With the result cache
// enabled, an exact replay — same template AND same parameter vector —
// skips even that: the completed answer is served from memory (epoch- and
// TTL-validated, deep-copied so callers cannot mutate cached state), and
// concurrent misses of one cold key collapse into a single execution
// whose answer every caller shares.
func (rt *Runtime) Run(q *sqlparser.Query) (*Response, error) {
	return rt.RunCtxTraced(context.Background(), q, nil)
}

// RunCtxTraced is Run with a cancellation context and query-lifecycle
// telemetry. A context cancelled before the call returns ctx.Err() without
// planning or scanning anything, and a context cancelled mid-query stops
// the scan workers within one block range's worth of work; cancelled
// queries bump Stats.Cancelled and return no partial answer. Span children
// of the trace's root record each pipeline phase (normalize, cache
// lookups, the singleflight execution with its probes and per-range scans,
// result materialization), and — when Options.Telemetry is set — the
// completed query is recorded against its template key. tr may be nil:
// with the background context, a nil trace and a nil registry this is
// exactly Run, with zero telemetry overhead and no allocations on the
// telemetry paths.
func (rt *Runtime) RunCtxTraced(ctx context.Context, q *sqlparser.Query, tr *telemetry.Trace) (*Response, error) {
	return rt.run(ctx, q, tr, nil)
}

// run is the one body behind RunCtxTraced (emitMid nil) and
// RunStreamTraced (emitMid receives the pre-final refinements).
func (rt *Runtime) run(ctx context.Context, q *sqlparser.Query, tr *telemetry.Trace, emitMid midEmitter) (*Response, error) {
	reg := rt.opt.Telemetry
	var started time.Time
	if reg != nil {
		started = time.Now()
	}
	nsp := tr.Root().Child("normalize")
	key, params := sqlparser.Normalize(q)
	nsp.End()
	resp, err := rt.RunKeyed(ctx, q, key, params, tr, emitMid)
	if err != nil {
		return nil, err
	}
	if resp.Shared() {
		msp := tr.Root().Child("materialize")
		resp = resp.Materialize()
		msp.End()
	}
	if reg != nil {
		reg.Observe(key, ObservationFor(resp, time.Since(started).Seconds()))
	}
	return resp, nil
}

// RunKeyed is the run for a caller that normalized q itself (key, params:
// sqlparser.Normalize's) and keeps its own clock: nothing is observed
// here. emitMid, when non-nil, receives each pre-final refinement and its
// level. A result-cache hit comes back as a Shared view, not a copy, so a
// serving layer can answer it from the entry's Served form.
func (rt *Runtime) RunKeyed(ctx context.Context, q *sqlparser.Query, key string, params []types.Value, tr *telemetry.Trace, emitMid func(*Response, int) error) (*Response, error) {
	// An already-cancelled context never enters the pipeline: no cache
	// consultation, no scan (the QueryCtx promptness pin).
	if err := ctx.Err(); err != nil {
		rt.bump(&rt.stats.cancelled)
		return nil, err
	}
	resp, err := rt.runKeyed(ctx, q, key, params, tr.Root(), emitMid)
	if err != nil && isCancellation(err) {
		rt.bump(&rt.stats.cancelled)
	}
	return resp, err
}

// isCancellation reports whether an error is a context cancellation or
// deadline expiry (possibly wrapped).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ObservationFor folds one completed response into a telemetry
// Observation. Predicted latency is the cluster simulator's seconds (a
// different clock from wall time — the ratio is a per-template
// calibration constant); the bound pair is same-units.
func ObservationFor(resp *Response, wallSeconds float64) telemetry.Observation {
	o := telemetry.Observation{
		WallSeconds:      wallSeconds,
		PredictedSeconds: resp.SimLatency,
		// A result-cache hit (or a singleflight share of one execution)
		// scanned nothing this time around; only executed queries feed
		// the scan-shaped histograms.
		Executed: resp.ResultCache != "hit" && resp.ResultCache != "shared",
	}
	if !o.Executed {
		return o // the registry keeps nothing else of it
	}
	o.RowsScanned, o.BytesScanned = resp.Result.RowsScanned, resp.Result.BytesScanned
	o.ObservedBound = resp.Result.MaxAbsErr()
	for _, d := range resp.Decisions {
		if d.PredictedBound > o.PredictedBound {
			o.PredictedBound = d.PredictedBound
		}
	}
	return o
}

// runKeyed is the run body with normalization precomputed and an optional
// parent span (nil when untraced). Intermediate refinements flow through
// emitMid (nil when not streaming) on the executing paths only: cache hits
// and singleflight shares stream nothing — their answer is the session's
// single final refinement.
func (rt *Runtime) runKeyed(ctx context.Context, q *sqlparser.Query, key string, params []types.Value, root *telemetry.Span, emitMid midEmitter) (*Response, error) {
	if rt.results == nil {
		resp, note, _, err := rt.streamPrepared(ctx, q, key, params, root, emitMid)
		if err != nil {
			return nil, err
		}
		annotate(resp, note)
		return resp, nil
	}
	rkey := key + "\x1e" + sqlparser.ParamsKey(params)
	lsp := root.Child("result-cache lookup")
	if ent, ok := rt.results.Get(rkey); ok {
		if rt.freshDeps(ent.deps) {
			lsp.End()
			lsp.Note("result=hit")
			rt.bump(&rt.stats.resultHits)
			return ent.hit, nil
		}
		// A stale entry means a sample refresh/rebuild happened since the
		// answer was computed; purge EVERY stale answer now (mirroring the
		// plan cache's sweep) rather than letting dead epochs ride the LRU.
		rt.results.Sweep(func(_ string, cand *resultEntry) bool { return rt.freshDeps(cand.deps) })
	}
	lsp.End()
	if emitMid != nil {
		// Intermediates only flow on an executing path, whose final is
		// annotated result=miss — mark them the same way so a session's
		// refinements agree about where they came from.
		inner := emitMid
		emitMid = func(resp *Response, level int) error {
			annotateResult(resp, "miss")
			return inner(resp, level)
		}
	}
	var cachedHit bool
	fsp := root.Child("execute")
	ent, shared, err := rt.flights.Do(rkey, func() (*resultEntry, error) {
		var err error
		var e *resultEntry
		// Only the singleflight leader's closure runs, so only the
		// leader's trace carries the pipeline spans (and only the leader
		// streams); waiters' "execute" spans cover their wait and are
		// noted result=shared below.
		e, cachedHit, err = rt.resultLeader(ctx, q, key, params, rkey, fsp, emitMid)
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
		ent, cachedHit, err = rt.resultLeader(ctx, q, key, params, rkey, rsp, emitMid)
		rsp.End()
		if err != nil {
			return nil, err
		}
		shared = false
	}
	if shared && !rt.freshDeps(ent.deps) {
		// The shared answer predates an epoch change this caller has
		// already observed (its own cache lookup happened after the
		// change): serving it would leak pre-refresh data into a
		// post-refresh query. Fall back to a fresh leader pass — outside
		// the (already landed) flight; concurrent stale waiters each
		// re-execute, an acceptable cost for the rare refresh window.
		rsp := root.Child("stale-shared re-execute")
		ent, cachedHit, err = rt.resultLeader(ctx, q, key, params, rkey, rsp, emitMid)
		rsp.End()
		if err != nil {
			return nil, err
		}
		shared = false
	}
	if cachedHit {
		rt.bump(&rt.stats.resultHits)
		fsp.Note("result=hit")
		return ent.hit, nil
	}
	// The leader and every singleflight waiter receive a private deep
	// copy; the canonical response in the entry is never annotated.
	msp := root.Child("materialize")
	resp := ent.resp.clone()
	if shared {
		rt.bump(&rt.stats.resultShared)
		annotateResult(resp, "shared")
		fsp.Note("result=shared")
	} else {
		annotate(resp, ent.note)
		annotateResult(resp, "miss")
		fsp.Note("result=miss")
	}
	msp.End()
	return resp, nil
}

// resultLeader is the singleflight leader's body: re-check the cache,
// then execute and cache on a true miss. The re-check matters — a caller
// descheduled between its cache miss and its Do call can find the flight
// already landed and become a second "leader"; without the re-check it
// would re-run the whole pipeline for an answer that is already cached
// (and skew the exactly-one-execution Stats contract). cached reports
// whether the answer came from the cache (a hit) rather than execution.
func (rt *Runtime) resultLeader(ctx context.Context, q *sqlparser.Query, key string, params []types.Value, rkey string, sp *telemetry.Span, emitMid midEmitter) (*resultEntry, bool, error) {
	if cached, ok := rt.results.Get(rkey); ok && rt.freshDeps(cached.deps) {
		return cached, true, nil
	}
	resp, note, deps, err := rt.streamPrepared(ctx, q, key, params, sp, emitMid)
	if err != nil {
		return nil, false, err
	}
	// Count the miss only for executions that enter the cache, like the
	// plan cache's convention.
	rt.bump(&rt.stats.resultMisses)
	ent := newResultEntry(resp, note, deps)
	rt.results.Put(rkey, ent)
	return ent, false, nil
}

// streamPrepared is the prepare/execute pipeline of a run — plan-cache
// lookup (when enabled), prepare on miss, execute — returning the
// UNANNOTATED response, the plan-cache note ("hit"/"miss", "" when
// disabled) and the table-epoch deps the answer was computed against.
// Callers own the annotation so the result cache can store canonical
// responses. When emitMid is non-nil it receives each pre-final refinement
// (see streamParams); the returned Response is always the final answer —
// bit-identical to the emitMid==nil path.
func (rt *Runtime) streamPrepared(ctx context.Context, q *sqlparser.Query, key string, params []types.Value, sp *telemetry.Span, emitMid midEmitter) (*Response, string, []tableDep, error) {
	if rt.cache == nil {
		pq, err := rt.prepareKeyed(ctx, q, key, params, sp)
		if err != nil {
			return nil, "", nil, err
		}
		resp, err := rt.streamParams(ctx, pq, q, pq.prepParams, sp, emitMid)
		return resp, "", pq.deps, err
	}
	lsp := sp.Child("plan-cache lookup")
	if pq, ok := rt.cache.Get(key); ok {
		if rt.fresh(pq) {
			lsp.End()
			resp, err := rt.streamParams(ctx, pq, q, params, sp, emitMid)
			if err == nil {
				lsp.Note("cache=hit")
				rt.bump(&rt.stats.cacheHits)
				return resp, "hit", pq.deps, nil
			}
			if err != errTemplateMismatch {
				return nil, "", nil, err
			}
			// Defensive: equal keys should imply equal shape; if not,
			// fall through and re-prepare. (The mismatch is detected
			// before any refinement is emitted.)
		}
		// A stale (or mismatched) entry means a sample refresh/rebuild
		// happened: a PreparedQuery pins its catalog snapshot — old
		// table blocks, old sample families, memoized results — so
		// purge EVERY stale entry now rather than letting dead
		// snapshots ride the LRU until their template happens to be
		// queried again.
		rt.cache.Sweep(func(_ string, cand *PreparedQuery) bool { return rt.fresh(cand) })
	}
	lsp.End() // idempotent on the template-mismatch fall-through
	lsp.Note("cache=miss")
	pq, err := rt.prepareKeyed(ctx, q, key, params, sp)
	if err != nil {
		return nil, "", nil, err
	}
	// Count the miss only for queries that actually entered the cache;
	// errored prepares would otherwise skew the hit rate.
	rt.bump(&rt.stats.cacheMisses)
	rt.cache.Put(key, pq)
	resp, err := rt.streamParams(ctx, pq, q, params, sp, emitMid)
	return resp, "miss", pq.deps, err
}

// selectFamily implements §4.1.1: prefer the covering stratified family
// with the fewest columns; otherwise probe every candidate's smallest
// sample — concurrently, one goroutine per family — and take the one
// with the highest matched/read ratio. The comparison reads two integers
// off each candidate, so with several candidates each is probed with the
// plan's count plan (exec.Plan.CountOnly: same predicate, joins, pruning
// and scan; one COUNT(*), no groups) and the plan itself then runs once, on
// the winner's probe view; a lone candidate runs the plan directly. The
// third and fourth return values are that full-plan probe's result and its
// chain (nil when no probe ran), which prepareConjunctive carries on, so
// each (family, view) executes the plan at most once per query.
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
	// (§4.1.1; entry.Families is non-empty here).
	cands := entry.Families

	// §4.1.1 probes the candidates' smallest samples in parallel, which is
	// also what ProbeLatency prices (the max, not the sum). Outcomes are
	// gathered by candidate index and judged in candidate order below, so
	// the decision is the one a sequential sweep would reach.
	var psp *telemetry.Span
	if sp != nil {
		psp = sp.Child(fmt.Sprintf("probe candidates=%d", len(cands)))
	}
	defer psp.End()
	ins := make([]exec.Input, len(cands))
	results := make([]*exec.Result, len(cands))
	lats := make([]float64, len(cands))
	spans := make([]*telemetry.Span, len(cands))
	if psp != nil {
		for i, f := range cands {
			spans[i] = psp.Child("probe " + f.Label()) // in candidate order
		}
	}
	var chain *exec.Chain // a lone candidate's probe runs the plan itself
	var count *exec.Plan
	if len(cands) > 1 {
		count = plan.CountOnly()
	}
	err := gather(len(cands), func(i int) error {
		pv := rt.probeView(cands[i])
		ins[i] = viewInput(pv, plan)
		var res *exec.Result
		var err error
		if count == nil {
			chain = exec.NewChain(plan, joins)
			res, err = rt.probeChain(ctx, chain, ins[i], conf, spans[i])
		} else {
			res, err = rt.runProbe(ctx, count, ins[i], conf, joins, spans[i])
		}
		spans[i].End()
		results[i], lats[i] = res, rt.probePrice(entry, pv.Blocks(), ins[i].Blocks)
		return err
	})
	if err != nil {
		return nil, dec, nil, nil, err
	}

	best, uniform := -1, -1
	bestRatio, uniformRatio := -1.0, -1.0
	maxProbe := 0.0
	for i, f := range cands {
		res := results[i]
		maxProbe = max(maxProbe, lats[i])
		ratio := res.Selectivity()
		dec.Probed = append(dec.Probed, ProbeInfo{Family: f, Selectivity: ratio, Matched: res.RowsMatched})
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
	dec.ProbeLatency = maxProbe
	dec.Reason = fmt.Sprintf("no covering family: probed %d families, best selectivity %.4f on %s",
		len(cands), bestRatio, cands[best].Label())
	bestRes := results[best]
	if chain == nil {
		// The winner's probe view, read again for what the count pass left
		// out: the groups and estimates resolution selection extrapolates
		// from, and — at the probe's own resolution — the answer itself.
		// Part of probing: ProbeLatency priced this view's read already.
		var fsp *telemetry.Span
		if psp != nil {
			fsp = psp.Child("probe " + cands[best].Label() + " full")
		}
		chain = exec.NewChain(plan, joins)
		bestRes, err = rt.probeChain(ctx, chain, ins[best], conf, fsp)
		fsp.End()
		if err != nil {
			return nil, dec, nil, nil, err
		}
	}
	return cands[best], dec, bestRes, chain, nil
}

// gather runs fn(0) … fn(n-1) concurrently — one goroutine each, the last
// on the caller — waits for all of them and returns the lowest-index
// error: the one a sequential sweep would have stopped at, whichever
// finished first. n must be at least 1.
func gather(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	errs[n-1] = fn(n - 1)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
// the same extrapolation Profile's curve plots. Deterministic and derived
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
// accounting for probe time already spent and §4.4 delta reuse.
func (rt *Runtime) levelForTime(entry *catalog.Entry, fam *sample.Family, plan *exec.Plan, budget, spent float64, pv sample.View) int {
	best := 0
	for lvl := 0; lvl < fam.Resolutions(); lvl++ {
		view := fam.View(lvl)
		var lat float64
		if *rt.opt.DeltaReuse {
			lat = rt.readPrice(entry, plan, view.DeltaBlocks(pv))
		} else {
			lat = rt.readPrice(entry, plan, view.Blocks())
		}
		if spent+lat <= budget {
			best = lvl
		}
	}
	return best
}

// ProfilePoint is one point of an Error-Latency Profile: the projected
// standard error and simulated latency of running the plan on one
// resolution of a family.
type ProfilePoint struct {
	// Level is the resolution index.
	Level int
	// Cap is the resolution's frequency cap (or row target for uniform).
	Cap int64
	// Rows is the resolution's total row count.
	Rows int64
	// ExpectedMatches projects the matched rows at this resolution.
	ExpectedMatches float64
	// ProjStdErr is the projected worst-group standard error (1/√n law).
	ProjStdErr float64
	// ProjRelErr is the projected worst-group relative error.
	ProjRelErr float64
	// Latency is the simulated seconds to scan this resolution
	// (cumulative blocks, no delta reuse).
	Latency float64
}

// Profile builds the full ELP for a plan over one family by probing the
// smallest resolution and extrapolating error with the 1/√n law of
// Table 2 while pricing latency with the cluster model. This is the curve
// Fig. 7(c) plots (time to reach a target error).
func (rt *Runtime) Profile(fam *sample.Family, plan *exec.Plan, conf float64) []ProfilePoint {
	pv := rt.probeView(fam)
	smallIn := viewInput(pv, plan)
	probe, _ := rt.runPlan(context.Background(), plan, smallIn, conf, nil, nil)
	probeMatched := float64(probe.RowsMatched)

	// Worst-group probe error.
	worstStd, worstRel := 0.0, 0.0
	for _, g := range probe.Groups {
		for _, e := range g.Estimates {
			if e.StdErr > worstStd {
				worstStd = e.StdErr
			}
			if re := e.RelErr(); re > worstRel && !math.IsInf(re, 1) {
				worstRel = re
			}
		}
	}

	pts := make([]ProfilePoint, 0, fam.Resolutions())
	for lvl := 0; lvl < fam.Resolutions(); lvl++ {
		view := fam.View(lvl)
		pt := ProfilePoint{Level: lvl, Cap: view.Cap(), Rows: view.Rows()}
		pt.ExpectedMatches = expectedMatches(fam, probe, lvl, pv)
		if probeMatched > 0 && pt.ExpectedMatches > 0 {
			shrink := math.Sqrt(probeMatched / pt.ExpectedMatches)
			pt.ProjStdErr = worstStd * shrink
			pt.ProjRelErr = worstRel * shrink
		}
		pt.Latency = rt.latencyOf(plan.Prune(view.Blocks()))
		pts = append(pts, pt)
	}
	return pts
}

// runProbe is runPlan counted as an ELP probe (§4.1.1 candidate count
// passes) — the executions the plan cache amortizes away.
func (rt *Runtime) runProbe(ctx context.Context, plan *exec.Plan, in exec.Input, conf float64, joins []exec.JoinSpec, sp *telemetry.Span) (*exec.Result, error) {
	rt.bump(&rt.stats.probeExecs)
	return rt.runPlan(ctx, plan, in, conf, joins, sp)
}

// probeChain is extend counted as an ELP probe: the plan's run on the
// chosen family's probe view and each §4.2 escalation past it.
func (rt *Runtime) probeChain(ctx context.Context, c *exec.Chain, in exec.Input, conf float64, sp *telemetry.Span) (*exec.Result, error) {
	rt.bump(&rt.stats.probeExecs)
	return rt.extend(ctx, c, in, conf, sp)
}

// extend is runPlan for a Chain: in's blocks folded into c, and the
// answer at in's resolution.
func (rt *Runtime) extend(ctx context.Context, c *exec.Chain, in exec.Input, conf float64, sp *telemetry.Span) (*exec.Result, error) {
	rt.bump(&rt.stats.planExecs)
	var ssp *telemetry.Span
	if sp != nil {
		ssp = sp.Child(fmt.Sprintf("scan blocks=%d", len(in.Blocks)))
	}
	res, err := c.Extend(ctx, in, conf, rt.opt.Workers, ssp)
	ssp.End()
	return res, err
}

// runPlan executes the plan over the input, joining dimension tables when
// the query has JOIN clauses (§2.1: fact-side sampling, exact broadcast
// dimensions). With sp non-nil the scan records a span tree (per-range
// partials + merge) beneath it. The only possible error is ctx.Err(): a
// cancelled scan returns no partial result. PlanExecs counts the attempt
// either way — a cancelled scan may have done most of its work.
func (rt *Runtime) runPlan(ctx context.Context, plan *exec.Plan, in exec.Input, conf float64, joins []exec.JoinSpec, sp *telemetry.Span) (*exec.Result, error) {
	rt.bump(&rt.stats.planExecs)
	var ssp *telemetry.Span
	if sp != nil {
		ssp = sp.Child(fmt.Sprintf("scan blocks=%d", len(in.Blocks)))
	}
	res, err := exec.RunJoin(ctx, plan, in, joins, conf, rt.opt.Workers, ssp)
	ssp.End()
	return res, err
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

// probePrice prices a probe's run over read, the blocks of the probe view's
// window w the plan reads (see windowPrice).
func (rt *Runtime) probePrice(entry *catalog.Entry, w, read []*storage.Block) float64 {
	if rt.opt.ProbeOverheadOnly {
		if len(read) == 0 {
			return 0
		}
		return cluster.BlinkDBEngine.JobOverheadSec
	}
	return rt.windowPrice(entry, w, read)
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
