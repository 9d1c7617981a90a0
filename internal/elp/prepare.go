package elp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"blinkdb/internal/catalog"
	"blinkdb/internal/exec"
	"blinkdb/internal/sample"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/telemetry"
	"blinkdb/internal/types"
)

// errTemplateMismatch signals that a PreparedQuery cannot serve a query
// (different template shape); callers re-prepare.
var errTemplateMismatch = errors.New("elp: query does not match the prepared template")

// tableDep records one table the prepared state was computed against,
// with its catalog epoch at prepare time. Any epoch change — a sample
// refresh, a maintenance rebuild/drop, a table reload — invalidates the
// prepared state.
type tableDep struct {
	table string
	epoch uint64
}

// PreparedQuery is the reusable outcome of Prepare for one query
// template: the resolved catalog snapshot, compiled join specs, and — for
// bounded queries — each disjunct's probed family, probe result and
// Error-Latency Profile inputs. Execute binds fresh constants and bounds
// against this state without re-probing.
//
// A PreparedQuery is safe for concurrent Execute calls: everything
// written by Prepare is immutable afterwards, except a probe's chain, which
// the first read to continue it takes.
type PreparedQuery struct {
	// Key is the template key (sqlparser.Normalize) this state serves.
	Key string

	table string
	deps  []tableDep
	entry *catalog.Entry // catalog snapshot at prepare time
	// schema is the scan schema: the fact table's, or the join-expanded
	// one when the template has JOIN clauses.
	schema *types.Schema
	joins  []exec.JoinSpec
	// exact marks unbounded templates (no ERROR/WITHIN bound): they run
	// on the base table and carry no probe state.
	exact bool
	// prepParams is the parameter vector Prepare ran with. Cached RESULTS
	// (probe answers and the probe's chain) may only answer queries whose
	// parameters equal it; cached DECISION state (family choice, probe
	// statistics, ELP fit) is template-scoped and serves any constants.
	prepParams []types.Value
	// prepQ/prepPlan are the exact query object Prepare compiled and its
	// plan; streamParams reuses the plan when handed the same object
	// (the cache-off and miss paths), skipping a second compile.
	prepQ    *sqlparser.Query
	prepPlan *exec.Plan

	disjuncts []*prepDisjunct
}

// Epoch returns the fact table's epoch the query was prepared against.
func (pq *PreparedQuery) Epoch() uint64 {
	if len(pq.deps) == 0 {
		return 0
	}
	return pq.deps[0].epoch
}

// prepDisjunct is the prepared state of one conjunctive sub-query
// (§4.1.2 disjunct): the §4.1.1 family choice with its probe outcomes,
// and the probe-chain endpoint the §4.2 resolution selection extrapolates
// from.
type prepDisjunct struct {
	// fam is the selected family; nil when the table has no usable
	// samples (exact execution).
	fam *sample.Family
	// famDec is the Decision skeleton selectFamily produced: probed
	// candidates with selectivities, probe latency, reason prefix.
	famDec Decision
	// pv/probe/probeLat are the §4.2 probe chain endpoint: the escalated
	// probe view, its result, and the accumulated probe latency.
	pv       sample.View
	probe    *exec.Result
	probeLat float64
	// chain is the probe's scan state through pv, which the first read
	// with Prepare's parameters at a larger resolution takes and continues
	// (§4.4), scanning the deltas past pv alone — the read right after a
	// prepare. Later reads, and a template restored from a warmup blob
	// (nil), scan their view whole: the same answer, bit for bit.
	chain atomic.Pointer[exec.Chain]
}

// confidenceFor derives the CI level for a query.
func (rt *Runtime) confidenceFor(q *sqlparser.Query) float64 {
	conf := rt.opt.Confidence
	if q.Err != nil && q.Err.Confidence > 0 {
		conf = q.Err.Confidence
	} else if q.ReportError {
		conf = q.ReportConfidence
	}
	return conf
}

// Prepare compiles a query template and builds its reusable runtime
// state: catalog/join resolution, and — for bounded queries — per
// disjunct the §4.1.1 family selection (probing the smallest samples
// where needed) and the §4.2 probe chain the Error-Latency Profile is
// extrapolated from. The returned PreparedQuery answers any query with
// the same template via Execute; it becomes stale (and is rejected by the
// plan cache) when any involved table's catalog epoch changes.
func (rt *Runtime) Prepare(q *sqlparser.Query) (*PreparedQuery, error) {
	key, params := sqlparser.Normalize(q)
	return rt.prepareKeyed(context.Background(), q, key, params, nil)
}

// prepareKeyed is Prepare with the normalization precomputed (Run already
// normalized the query for the cache lookup) and an optional parent span
// under which the prepare phase and its probes are recorded.
func (rt *Runtime) prepareKeyed(ctx context.Context, q *sqlparser.Query, key string, params []types.Value, sp *telemetry.Span) (*PreparedQuery, error) {
	psp := sp.Child("prepare")
	defer psp.End()
	rt.bump(&rt.stats.prepares)
	entry, err := rt.cat.Lookup(q.Table)
	if err != nil {
		return nil, err
	}
	pq := &PreparedQuery{
		Key:        key,
		table:      q.Table,
		entry:      entry,
		prepParams: params,
		deps:       []tableDep{{strings.ToLower(q.Table), entry.Epoch}},
	}
	schema := entry.Table.Schema
	var joins []exec.JoinSpec
	if len(q.Joins) > 0 {
		schema, joins, err = exec.CompileJoins(q, entry.Table.Schema,
			func(table string) (*storage.Table, error) {
				de, err := rt.cat.Lookup(table)
				if err != nil {
					return nil, err
				}
				pq.deps = append(pq.deps, tableDep{strings.ToLower(table), de.Epoch})
				return de.Table, nil
			})
		if err != nil {
			return nil, err
		}
		if err := rt.checkJoinAdmissible(entry, q, joins); err != nil {
			return nil, err
		}
	}
	pq.schema = schema
	pq.joins = joins
	plan, err := exec.Compile(q, schema)
	if err != nil {
		return nil, err
	}
	pq.prepQ, pq.prepPlan = q, plan

	// Unbounded queries run exactly on the base table, like plain Hive:
	// no probes, no ELP.
	if q.Err == nil && q.Time == nil {
		pq.exact = true
		return pq, nil
	}

	conf := rt.confidenceFor(q)
	disjuncts := types.SplitDisjuncts(plan.Pred)
	groupCols := types.NewColumnSet(q.GroupBy...)
	for _, pred := range disjuncts {
		sub := plan.WithPred(pred)
		// Sample selection considers only fact-table columns: samples
		// exist on the fact side; dimension columns are joined exactly.
		phi := factColumns(pred.Columns().Union(groupCols), entry.Table.Schema)
		pd, err := rt.prepareConjunctive(ctx, entry, sub, phi, q, conf, joins, psp)
		if err != nil {
			return nil, err
		}
		pq.disjuncts = append(pq.disjuncts, pd)
	}
	return pq, nil
}

// prepareConjunctive runs the probing half of planning one conjunctive
// sub-query: §4.1.1 family selection, then the §4.2 probe chain —
// for error-bounded queries, escalating to coarser resolutions until the
// probe carries statistical signal (≥20 matching rows). Only the FIRST
// probe enjoys the cheap-probe assumption; escalations read real delta
// blocks — and only those: each one extends the probe's chain — and are
// priced (and budget-limited) accordingly.
func (rt *Runtime) prepareConjunctive(ctx context.Context, entry *catalog.Entry, plan *exec.Plan,
	phi types.ColumnSet, q *sqlparser.Query, conf float64, joins []exec.JoinSpec, sp *telemetry.Span) (*prepDisjunct, error) {

	fam, dec, probe, chain, err := rt.selectFamily(ctx, entry, plan, phi, conf, joins, sp)
	if err != nil {
		return nil, err
	}
	pd := &prepDisjunct{fam: fam, famDec: dec}
	if fam == nil {
		return pd, nil
	}
	pv := rt.probeView(fam)
	in := viewInput(pv, plan)
	if probe == nil {
		var psp *telemetry.Span
		if sp != nil {
			psp = sp.Child("probe " + fam.Label())
		}
		chain = exec.NewChain(plan, joins)
		probe, err = rt.probeChain(ctx, chain, in, conf, psp)
		psp.End()
		if err != nil {
			return nil, err
		}
	}
	probeLat := probePrice(in.Blocks)
	for q.Err != nil && probe.RowsMatched < 20 && pv.Level < fam.Resolutions()-1 {
		next := fam.View(pv.Level + 1)
		step := rt.readPrice(entry, plan, next.DeltaBlocks(pv))
		if q.Time != nil && probeLat+step > q.Time.Seconds {
			break // escalating further would blow the time bound
		}
		var esp *telemetry.Span
		if sp != nil {
			esp = sp.Child(fmt.Sprintf("probe escalate L%d %s", next.Level, fam.Label()))
		}
		probe, err = rt.probeChain(ctx, chain, exec.FromDelta(next, pv.Level).Pruned(plan), conf, esp)
		esp.End()
		if err != nil {
			return nil, err
		}
		pv = next
		probeLat += step
	}
	pd.pv, pd.probe, pd.probeLat = pv, probe, probeLat
	pd.chain.Store(chain)
	return pd, nil
}

// Execute answers a query from prepared state: it binds the query's
// current constants into a fresh plan, re-runs resolution selection
// against the cached probe statistics, and scans only the chosen view —
// never re-probing. The query must match the prepared template
// (sqlparser.Normalize key); constants and bound values may differ from
// the prepare-time ones, in which case the cached probe statistics stand
// in for a fresh probe (the template-scoped approximation the paper's
// per-template sample choice rests on) while the answer itself is always
// computed — or memo-served — for the query's own constants.
func (rt *Runtime) Execute(pq *PreparedQuery, q *sqlparser.Query) (*Response, error) {
	key, params := sqlparser.Normalize(q)
	if key != pq.Key {
		return nil, errTemplateMismatch
	}
	// Unannotated, like every streamParams response: Run applies the
	// plan/result cache markers so cached canonical responses stay pristine.
	return rt.streamParams(context.Background(), pq, q, params, nil, nil)
}

// levelChoice is the scan-free half of executing one conjunctive
// sub-query: the fully-built Decision (reason, latencies, chosen view,
// predicted bound) plus the resolution the scan half must read. level -1
// means base-table execution (no samples, unreachable error bound, or an
// exact template). Everything here derives deterministically from
// prepared probe state and block metadata — no scan runs — which is what
// lets the streaming session price and announce every refinement before
// executing it.
type levelChoice struct {
	dec   Decision
	level int
}

// chooseConjunctive runs §4.2 resolution selection for one conjunctive
// sub-query from its prepared probe state: the error bound's row
// requirement (levelForRows), the time bound's latency cap (levelForTime),
// the §4.4 delta-reuse bump to at least the probe's resolution, and the
// full latency/bound accounting for the chosen level, which reads only the
// delta past the probe's.
func (rt *Runtime) chooseConjunctive(pq *PreparedQuery, pd *prepDisjunct, plan *exec.Plan,
	q *sqlparser.Query, conf float64) levelChoice {

	entry, joins := pq.entry, pq.joins
	dec := pd.famDec // copy; Probed slice is shared and immutable
	if pd.fam == nil {
		// No samples at all: exact execution.
		dec.UsedBase = true
		dec.Reason = "no sample families available: exact execution"
		dec.ReadLatency = rt.tablePrice(entry) + rt.broadcastCost(joins)
		return levelChoice{dec: dec, level: -1}
	}
	fam, pv, probe := pd.fam, pd.pv, pd.probe
	if pd.probeLat > dec.ProbeLatency {
		dec.ProbeLatency = pd.probeLat
	}

	minLevel := 0 // smallest level satisfying the error bound
	satisfiable := true
	if q.Err != nil {
		if probe.RowsMatched == 0 {
			// The probe saw no matching rows: no error bound can be
			// certified from this family.
			satisfiable = false
			minLevel = fam.Resolutions() - 1
			dec.Reason += "; probe matched no rows"
		} else {
			need := rt.requiredRows(probe, q.Err)
			dec.RequiredRows = need
			minLevel, satisfiable = rt.levelForRows(fam, probe, need, pv)
		}
	}

	maxLevel := fam.Resolutions() - 1 // largest level within the time bound
	if q.Time != nil {
		maxLevel = rt.levelForTime(entry, fam, plan, q.Time.Seconds, dec.ProbeLatency, pv)
	}

	level := minLevel
	switch {
	case q.Err != nil && q.Time != nil:
		// Time is a hard bound; deliver the most accurate within it.
		if minLevel > maxLevel || !satisfiable {
			level = maxLevel
		}
	case q.Err != nil:
		if !satisfiable {
			// Even the largest resolution cannot meet the error bound and
			// no time bound caps the work: fall back to exact execution.
			dec.Reason += "; largest sample insufficient for error bound"
			dec.UsedBase = true
			dec.Reason += "; error bound unreachable on samples: exact execution"
			dec.ReadLatency = rt.tablePrice(entry) + rt.broadcastCost(joins)
			return levelChoice{dec: dec, level: -1}
		}
	case q.Time != nil:
		level = maxLevel
	}
	if level < 0 {
		level = 0
	}
	dec.Reason += fmt.Sprintf("; resolution %d/%d (K=%d)", level, fam.Resolutions()-1, fam.View(level).Cap())
	// The probe's blocks are already read; answering from at least the
	// probe's resolution costs nothing extra and can only improve accuracy.
	level = max(level, pv.Level)
	view := fam.View(level)
	dec.View = view
	// The projected half-width at the chosen level — recorded whether or
	// not telemetry is enabled, so enabling it never perturbs answers.
	dec.PredictedBound = predictedBound(fam, probe, level, pv, conf)
	// §4.4: the probe already read resolutions 0..pv.Level.
	dec.ReadLatency = rt.readPrice(entry, plan, view.DeltaBlocks(pv)) + rt.broadcastCost(joins)
	return levelChoice{dec: dec, level: level}
}

// read is one disjunct's scan within one execution: the chain of the
// family's resolutions it has folded so far, and its answer at the last
// level it read. An execution that walks several levels — a streaming
// session's refinements, then its final — reads each delta once.
type read struct {
	chain *exec.Chain
	res   *exec.Result
	level int // res's resolution; -1 the base table
}

// readAt returns the disjunct's answer at level (-1: the base table), the
// levels a read is asked for never decreasing. It reads nothing when the
// answer is already at hand: r's own, or — parameters as Prepare's — the
// probe's at the probe's level. Past that it continues a chain: r's, the
// probe's when r is the first read to take it (Prepare's parameters), or a
// new one, scanning only the deltas the chain has not folded. Whichever,
// the answer is bit-identical to a scan of the level's view (exec.Chain).
func (rt *Runtime) readAt(ctx context.Context, pq *PreparedQuery, pd *prepDisjunct, plan *exec.Plan,
	conf float64, paramsEq bool, r *read, level int, sp *telemetry.Span) (*exec.Result, error) {

	if r.res != nil && r.level == level {
		return r.res, nil
	}
	var res *exec.Result
	var err error
	switch {
	case level < 0:
		res, err = rt.runPlan(ctx, plan, exec.FromTable(pq.entry.Table), conf, pq.joins, sp)
	case paramsEq && level == pd.pv.Level:
		res = pd.probe
	default:
		if r.chain == nil && paramsEq && level > pd.pv.Level {
			r.chain = pd.chain.Swap(nil)
		}
		if r.chain == nil {
			r.chain = exec.NewChain(plan, pq.joins)
		}
		in := exec.FromDelta(pd.fam.View(level), r.chain.Level()).Pruned(plan)
		res, err = rt.extend(ctx, r.chain, in, conf, sp)
	}
	if err != nil {
		return nil, err
	}
	r.res, r.level = res, level
	return res, nil
}

// fresh reports whether every table the prepared query depends on still
// carries its prepare-time epoch — i.e. no sample refresh, maintenance
// rebuild or table reload happened since. A stale PreparedQuery must
// never be served: its probe results and ELP were fitted on sample data
// that no longer exists.
func (rt *Runtime) fresh(pq *PreparedQuery) bool { return rt.freshDeps(pq.deps) }

// freshDeps is the dependency half of fresh, shared with the result
// cache: a cached RESULT is exactly as stale as a cached probe when any
// of its tables' epochs moved.
func (rt *Runtime) freshDeps(deps []tableDep) bool {
	for _, d := range deps {
		if rt.cat.Epoch(d.table) != d.epoch {
			return false
		}
	}
	return true
}

// clone deep-copies a response: the Result (groups, keys, estimates) and
// the Decisions slice are fresh, so annotating or mutating the clone
// never touches the canonical cached response or any other caller's
// copy. The Probed slices and sample.View references inside decisions
// are shared — both are immutable after planning.
func (r *Response) clone() *Response {
	cp := *r
	cp.Result = r.Result.Clone()
	if r.Decisions != nil {
		cp.Decisions = append([]Decision(nil), r.Decisions...)
	}
	return &cp
}

// annotate tags each decision (and the response) with the plan-cache
// outcome so EXPLAIN output shows cache=hit|miss. No-op when the cache
// is disabled, preserving pre-cache reason strings bit for bit.
func annotate(resp *Response, note string) {
	if note == "" {
		return
	}
	resp.Cache = note
	for i := range resp.Decisions {
		resp.Decisions[i].Reason += "; cache=" + note
	}
}

// annotateResult tags each decision (and the response) with the
// result-cache outcome so EXPLAIN output shows result=hit|miss|shared.
// No-op when the result cache is disabled, preserving pre-result-cache
// reason strings bit for bit.
func annotateResult(resp *Response, note string) {
	if note == "" {
		return
	}
	resp.ResultCache = note
	for i := range resp.Decisions {
		resp.Decisions[i].Reason += "; result=" + note
	}
}
