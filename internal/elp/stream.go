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
// # Refinements fold deltas
//
// Each refinement folds one more delta into the session's chain
// (exec.Chain) and finalizes it at the level's cap. A row's class is keyed
// by its stratum frequency and weighed only at finalize, so what was
// folded for level ℓ is still right at ℓ+1: the session reads every delta
// once — the probe's levels not at all when its parameters are Prepare's —
// and each refinement's SimLatency is the delta-priced cumulative cost,
// monotonically approaching the final's.
//
// # Bit-identity of the final refinement
//
// The final refinement does not take a special path: it is the same
// chooseConjunctive/readAt pair the non-streaming Execute runs, continuing
// the chain the refinements built — a chain extended to a level answers
// bit for bit as a scan of that level's view does — with the same merge
// and LIMIT handling, so it is DeepEqual (including latencies and cache
// markers) to what Run would have returned. Intermediate refinements add
// executor invocations (visible in Stats.PlanExecs) but never perturb the
// final answer; with Options.DeltaReuse disabled, or when the chain has a
// single step (result-cache hit, singleflight share, exact template, probe
// already at the final level), the stream degrades to exactly one final
// refinement.

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
	// must treat it as read-only: results may be shared with the prepared
	// probe and the runtime's caches.
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
// refinements through emitMid when non-nil: per disjunct the §4.4 level
// chain pv.Level..final−1, aligned across disjuncts (a disjunct whose chain
// is exhausted contributes its final-level answer, a base-table disjunct
// its one answer). Every refinement is a complete, well-formed response;
// the final one — the returned Response — is the emitMid==nil path's, bit
// for bit.
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
		res, err := rt.runPlan(ctx, plan, exec.FromTable(pq.entry.Table), conf, pq.joins, bsp)
		if err != nil {
			return nil, err
		}
		d := Decision{UsedBase: true, Reason: "no bounds: exact execution on base table"}
		d.ReadLatency = rt.tablePrice(pq.entry) + rt.broadcastCost(pq.joins)
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
	steps := 0 // intermediate refinements: the most levels a disjunct climbs past its probe's
	for i, pred := range disjuncts {
		subs[i] = plan.WithPred(pred)
		lcs[i] = rt.chooseConjunctive(pq, pq.disjuncts[i], subs[i], q, conf)
		if lcs[i].level >= 0 {
			steps = max(steps, lcs[i].level-pq.disjuncts[i].pv.Level)
		}
	}
	if emitMid == nil || !*rt.opt.DeltaReuse {
		steps = 0 // not streaming, or the ablation: no delta chain, one final refinement
	}

	reads := make([]read, len(subs))
	for step := 0; ; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		final := step == steps
		scanSp, rsp := bsp, (*telemetry.Span)(nil)
		if bsp != nil && emitMid != nil {
			name := "refinement final"
			if !final {
				name = fmt.Sprintf("refinement %d", step)
			}
			rsp = bsp.Child(name)
			scanSp = rsp
		}
		parts := make([]*exec.Result, len(subs))
		decs := make([]Decision, len(subs))
		stepLevel := -1
		for i, lc := range lcs {
			pd, level := pq.disjuncts[i], lc.level
			if level >= 0 && !final {
				level = min(level, pd.pv.Level+step)
			}
			res, err := rt.readAt(ctx, pq, pd, subs[i], conf, paramsEq, &reads[i], level, scanSp)
			if err != nil {
				rsp.End()
				return nil, err
			}
			parts[i], decs[i] = res, rt.refineDecision(pq, pd, subs[i], lc, level, conf)
			stepLevel = max(stepLevel, level)
		}
		resp := respond(plan, parts, decs, conf)
		if final {
			rsp.Note("final")
			rsp.End()
			for _, lc := range lcs {
				rt.recordLevel(lc.level)
			}
			return resp, nil
		}
		if rsp != nil {
			rsp.Note(fmt.Sprintf("level=%d", stepLevel))
		}
		rsp.End()
		if err := emitMid(resp, stepLevel); err != nil {
			return nil, err
		}
	}
}

// respond merges the disjuncts' answers into one Response (§4.1.2): LIMIT
// applied, the disjuncts priced as running in parallel.
func respond(plan *exec.Plan, parts []*exec.Result, decs []Decision, conf float64) *Response {
	merged := exec.MergeResults(plan, parts)
	if plan.Limit > 0 && len(merged.Groups) > plan.Limit {
		// Copy-on-truncate: with one disjunct, merged IS the disjunct's
		// answer — possibly the prepared probe's, shared — never mutate it.
		cp := *merged
		cp.Groups = merged.Groups[:plan.Limit]
		merged = &cp
	}
	simLatency := 0.0
	for _, d := range decs {
		if l := d.Latency(); l > simLatency {
			simLatency = l // disjuncts execute in parallel
		}
	}
	return &Response{Result: merged, Decisions: decs, SimLatency: simLatency, Confidence: conf}
}

// refineDecision derives a refinement's Decision from the final level
// choice: same probe accounting, but the view, projected bound and
// delta-priced read latency of the refinement's level. The cumulative
// ReadLatency (delta blocks pv..level) grows monotonically toward the
// final decision's, mirroring what a client progressively pays. At the
// disjunct's final level the final Decision is reported verbatim.
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
	dec.ReadLatency = rt.readPrice(pq.entry, plan, view.DeltaBlocks(pv)) + rt.broadcastCost(pq.joins)
	dec.Reason += fmt.Sprintf("; streaming refinement at resolution %d/%d (K=%d)", level, fam.Resolutions()-1, view.Cap())
	return dec
}
