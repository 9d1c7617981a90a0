package elp

// Streaming-refinement query sessions (the serving-side face of §4.4).
//
// A family stores its resolutions as non-overlapping delta block sets, so
// a query that will finally be answered at resolution F has a natural
// chain of cheaper answers along the way: the probe resolution pv, then
// pv+1, …, F−1, each adding one delta's worth of blocks. RunStreamTraced
// walks that chain and emits one Refinement per level, so a client sees a
// first (coarse, wide-bound) answer long before the final one.
//
// # Why refinements rescan the prefix
//
// A Horvitz-Thompson weight in this engine is per-row w = max(1, f/K_ℓ):
// it depends on the LEVEL CAP, not just the row. Partial aggregates
// accumulated at cap K_ℓ therefore cannot be folded into an answer at cap
// K_{ℓ+1} — summing delta-partials across caps gives Σ(K_d−K_{d−1})·f/K_d
// ≠ f, a biased estimator with no scalar correction. The engine's
// existing §4.4 delta-reuse path resolves the same tension by rescanning
// the pruned 0..ℓ prefix while CHARGING only the delta blocks (the
// probe's blocks are memory-resident; the simulated cluster prices what a
// real cluster would newly read). Streaming follows that exact house
// semantics: each refinement scans the prefix at its own cap — through
// the per-level memo, so repeated sessions of one template scan nothing —
// and its SimLatency is the delta-priced cumulative cost, monotonically
// approaching the final's.
//
// # Bit-identity of the final refinement
//
// The final refinement does not take a special path: it is produced by
// the same chooseConjunctive/scanConjunctive pair the non-streaming
// Execute runs, against the same memo, with the same merge and LIMIT
// handling — so it is DeepEqual (including latencies and cache markers)
// to what Run would have returned, by construction. Intermediate
// refinements add executor invocations (visible in Stats.PlanExecs) but
// never perturb the final answer; with Options.DeltaReuse disabled, or
// when the chain has a single step (result-cache hit, singleflight share,
// exact template, probe already at the final level), the stream degrades
// to exactly one final refinement.

import (
	"context"
	"fmt"

	"blinkdb/internal/exec"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/telemetry"
	"blinkdb/internal/types"
)

// Refinement is one streamed answer of a refinement session. Non-final
// refinements are intermediate answers at coarser resolutions; the final
// refinement is bit-identical to the non-streaming Run response.
type Refinement struct {
	// Resp is the full response at this refinement's resolution. Callers
	// must treat it as read-only: results may be shared with the runtime's
	// memo and caches.
	Resp *Response
	// Level is the sample resolution that produced this refinement (max
	// across disjuncts; -1 = base table).
	Level int
	// Seq numbers refinements from 0 within the session.
	Seq int
	// Final marks the last refinement of the session.
	Final bool
}

// midEmitter receives one intermediate (pre-final) refinement response.
type midEmitter func(resp *Response, level int) error

// RunStreamTraced executes q as a streaming-refinement session: emit is
// called once per refinement, in order, ending with exactly one Final
// refinement. An emit error aborts the session and is returned.
// A session that cannot refine (result-cache hit, singleflight share,
// exact template, single-level chain, DeltaReuse disabled) emits exactly
// one final refinement, so emit is always called at least once on
// success. Cancellation follows RunCtxTraced: ctx is checked between
// refinements and inside scans. It is the same run as RunCtxTraced — one
// body, with a refinement sink — so tr (which may be nil) sees the same
// spans plus a "refinement N" span (note level=L, final on the last) per
// refinement under the execute span, ordering first-answer vs
// final-answer, and the completed session is observed against its template
// key exactly like a non-streaming Run (one Observation, final answer's
// accounting).
func (rt *Runtime) RunStreamTraced(ctx context.Context, q *sqlparser.Query, tr *telemetry.Trace, emit func(Refinement) error) error {
	seq := 0
	final, err := rt.run(ctx, q, tr, func(resp *Response, level int) error {
		r := Refinement{Resp: resp, Level: level, Seq: seq}
		seq++
		return emit(r)
	})
	if err != nil {
		return err
	}
	return emit(Refinement{Resp: final, Level: responseLevel(final), Seq: seq, Final: true})
}

// responseLevel is the resolution a response was served at: the max level
// across its decisions, -1 when any disjunct used the base table.
func responseLevel(resp *Response) int {
	level := 0
	for _, d := range resp.Decisions {
		if d.UsedBase {
			return -1
		}
		if d.View.Level > level {
			level = d.View.Level
		}
	}
	return level
}

// streamParams executes a prepared query, streaming intermediate
// refinements through emitMid when non-nil. The returned final Response
// is bit-identical to the emitMid==nil (non-streaming) path: the final
// always runs the exact chooseConjunctive/scanConjunctive pair against the
// shared memo. See the package comment at the top of this file for why
// intermediates rescan the pruned prefix rather than folding delta
// partials across caps.
func (rt *Runtime) streamParams(ctx context.Context, pq *PreparedQuery, q *sqlparser.Query, params []types.Value, sp *telemetry.Span, emitMid midEmitter) (*Response, error) {
	bsp := sp.Child("bind+scan")
	defer bsp.End()
	plan := pq.prepPlan
	if q != pq.prepQ {
		var err error
		plan, err = exec.Compile(q, pq.schema)
		if err != nil {
			return nil, err
		}
	}
	conf := rt.confidenceFor(q)
	paramsEq := sqlparser.ParamsEqual(params, pq.prepParams)

	if pq.exact {
		res, err := pq.base.baseMemo(ctx, rt, plan, pq.entry.Table, conf, pq.joins, paramsEq, bsp)
		if err != nil {
			return nil, err
		}
		d := Decision{UsedBase: true, Reason: "no bounds: exact execution on base table"}
		d.ReadLatency = rt.latencyOf(pq.entry.Table.Blocks) + rt.broadcastCost(pq.joins)
		rt.recordLevel(-1)
		return &Response{Result: res, Decisions: []Decision{d}, SimLatency: d.Latency(), Confidence: conf}, nil
	}

	// §4.1.2: rewrite disjunctions into parallel conjunctive sub-queries.
	disjuncts := types.SplitDisjuncts(plan.Pred)
	if len(disjuncts) != len(pq.disjuncts) {
		return nil, errTemplateMismatch
	}
	subs := make([]*exec.Plan, len(disjuncts))
	lcs := make([]levelChoice, len(disjuncts))
	for i, pred := range disjuncts {
		subs[i] = plan.WithPred(pred)
		lcs[i] = rt.chooseConjunctive(pq, pq.disjuncts[i], subs[i], q, conf)
	}

	if emitMid != nil {
		if err := rt.streamIntermediates(ctx, pq, plan, subs, lcs, conf, paramsEq, bsp, emitMid); err != nil {
			return nil, err
		}
	}

	// The final refinement: the exact non-streaming scan path.
	var fsp *telemetry.Span
	if bsp != nil && emitMid != nil {
		fsp = bsp.Child("refinement final")
		fsp.Note("final")
	}
	scanSp := bsp
	if fsp != nil {
		scanSp = fsp
	}
	var parts []*exec.Result
	var decisions []Decision
	simLatency := 0.0
	for i := range subs {
		res, err := rt.scanConjunctive(ctx, pq, pq.disjuncts[i], subs[i], conf, paramsEq, lcs[i], scanSp)
		if err != nil {
			fsp.End()
			return nil, err
		}
		parts = append(parts, res)
		decisions = append(decisions, lcs[i].dec)
		if l := lcs[i].dec.Latency(); l > simLatency {
			simLatency = l // disjuncts execute in parallel
		}
	}
	fsp.End()
	merged := exec.MergeResults(plan, parts)
	if plan.Limit > 0 && len(merged.Groups) > plan.Limit {
		// Copy-on-truncate: with one disjunct, merged IS the (possibly
		// memoized, shared) disjunct result — never mutate it.
		cp := *merged
		cp.Groups = merged.Groups[:plan.Limit]
		merged = &cp
	}
	return &Response{Result: merged, Decisions: decisions, SimLatency: simLatency, Confidence: conf}, nil
}

// streamIntermediates emits the pre-final refinements: per disjunct the
// §4.4 level chain pv.Level..final−1, aligned across disjuncts (a
// disjunct whose chain is exhausted contributes its final-level answer,
// served from the memo when the final step re-reads it). Each step
// re-merges and re-applies LIMIT so every refinement is a complete,
// well-formed response.
func (rt *Runtime) streamIntermediates(ctx context.Context, pq *PreparedQuery, plan *exec.Plan,
	subs []*exec.Plan, lcs []levelChoice, conf float64, paramsEq bool, sp *telemetry.Span, emitMid midEmitter) error {

	if !*rt.opt.DeltaReuse {
		return nil // ablation: no delta chain, single final refinement
	}
	chains := make([][]int, len(subs))
	steps := 0
	for i, lc := range lcs {
		if lc.level < 0 {
			continue // base-table disjunct: no resolution chain
		}
		pd := pq.disjuncts[i]
		for l := pd.pv.Level; l < lc.level; l++ {
			chains[i] = append(chains[i], l)
		}
		if len(chains[i]) > steps {
			steps = len(chains[i])
		}
	}
	if steps == 0 {
		return nil
	}
	// Session-local memo: when paramsEq the shared per-level memo already
	// deduplicates; when not, it keeps one session from scanning the same
	// level twice across steps.
	local := make([]map[int]*exec.Result, len(subs))
	for i := range local {
		local[i] = make(map[int]*exec.Result)
	}
	for s := 0; s < steps; s++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var rsp *telemetry.Span
		if sp != nil {
			rsp = sp.Child(fmt.Sprintf("refinement %d", s))
		}
		stepLevel := -1
		var parts []*exec.Result
		var decs []Decision
		simLatency := 0.0
		for i := range subs {
			pd := pq.disjuncts[i]
			level := lcs[i].level
			if s < len(chains[i]) {
				level = chains[i][s]
			}
			res, err := rt.scanStreamLevel(ctx, pq, pd, subs[i], conf, paramsEq, level, local[i], rsp)
			if err != nil {
				rsp.End()
				return err
			}
			dec := rt.refineDecision(pq, pd, subs[i], lcs[i], level, conf)
			parts = append(parts, res)
			decs = append(decs, dec)
			if l := dec.Latency(); l > simLatency {
				simLatency = l
			}
			if level > stepLevel {
				stepLevel = level
			}
		}
		merged := exec.MergeResults(plan, parts)
		if plan.Limit > 0 && len(merged.Groups) > plan.Limit {
			cp := *merged
			cp.Groups = merged.Groups[:plan.Limit]
			merged = &cp
		}
		if rsp != nil {
			rsp.Note(fmt.Sprintf("level=%d", stepLevel))
		}
		rsp.End()
		resp := &Response{Result: merged, Decisions: decs, SimLatency: simLatency, Confidence: conf}
		if err := emitMid(resp, stepLevel); err != nil {
			return err
		}
	}
	return nil
}

// scanStreamLevel produces one disjunct's answer at one chain level:
// probe reuse at the probe's own level, the shared per-level memo
// otherwise, with the session-local map preventing intra-session rescans
// when the shared memo is unusable (parameters differ from prepare).
// Unlike scanConjunctive it does not count toward AnswersByLevel — only
// final answers do.
func (rt *Runtime) scanStreamLevel(ctx context.Context, pq *PreparedQuery, pd *prepDisjunct, plan *exec.Plan,
	conf float64, paramsEq bool, level int, local map[int]*exec.Result, sp *telemetry.Span) (*exec.Result, error) {

	if level < 0 {
		return pd.baseMemo(ctx, rt, plan, pq.entry.Table, conf, pq.joins, paramsEq, sp)
	}
	if r, ok := local[level]; ok {
		return r, nil
	}
	var res *exec.Result
	if level == pd.pv.Level && paramsEq {
		res = pd.probe
	} else {
		in := viewInput(pd.fam.View(level), plan)
		r, err := pd.runMemo(ctx, rt, level, plan, in, conf, pq.joins, paramsEq, sp)
		if err != nil {
			return nil, err
		}
		res = r
	}
	local[level] = res
	return res, nil
}

// refineDecision derives an intermediate refinement's Decision from the
// final level choice: same probe accounting, but the view, projected
// bound and delta-priced read latency of the intermediate level. The
// cumulative ReadLatency (delta blocks pv..level) grows monotonically
// toward the final decision's, mirroring what a client progressively
// pays. At the disjunct's final level the final Decision is reported
// verbatim.
func (rt *Runtime) refineDecision(pq *PreparedQuery, pd *prepDisjunct, plan *exec.Plan,
	lc levelChoice, level int, conf float64) Decision {

	if level < 0 || level == lc.level {
		return lc.dec
	}
	fam, pv, probe := pd.fam, pd.pv, pd.probe
	dec := lc.dec
	view := fam.View(level)
	dec.View = view
	dec.PredictedBound = predictedBound(fam, probe, level, pv, conf)
	dec.ReadLatency = rt.latencyOf(plan.Prune(view.DeltaBlocks(pv))) + rt.broadcastCost(pq.joins)
	dec.Reason += fmt.Sprintf("; streaming refinement at resolution %d/%d (K=%d)", level, fam.Resolutions()-1, view.Cap())
	return dec
}
