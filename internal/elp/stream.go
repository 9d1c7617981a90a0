package elp

// The ELP loop: one walk per disjunct up its family's resolutions (§4.2,
// §4.4).
//
// A family stores its resolutions as non-overlapping deltas, so a disjunct
// answered at resolution F passes cheaper answers on the way: the probe's
// resolution pv, then pv+1, …, F. A cursor walks them. It holds the
// disjunct's exec.Chain and last answer, and advance(level) folds in the
// deltas the chain has not read and finalizes it at the level's cap (rows
// are keyed by stratum frequency and weighed only then). One advance serves
// the probe, each §4.2 escalation, each streamed refinement and the final
// read, so an execution reads every delta once — and the probe's levels not
// at all when its parameters are the ones the template was prepared with.
//
// A stop rule says where a walk goes: at prepare, the probe escalates one
// level at a time until it carries signal (prepareConjunctive); at execute,
// to stopRule's level, in one step without an emitter and one level per
// step with one. Every step is a complete answer priced by decisionAt, and
// the last is the same either way: a streamed final is DeepEqual to the
// answer without an emitter, latencies and cache markers included.

import (
	"context"
	"fmt"

	"blinkdb/internal/catalog"
	"blinkdb/internal/exec"
	"blinkdb/internal/sample"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/telemetry"
	"blinkdb/internal/types"
)

// cursor is one walk's place: the chain of its family's deltas folded so
// far, and the answer at the last level read (-1: the base table).
type cursor struct {
	plan  *exec.Plan
	joins []exec.JoinSpec
	entry *catalog.Entry
	fam   *sample.Family // nil: the base table is the only level
	conf  float64
	probe bool // reads are ELP probes (Stats.ProbeExecs)

	chain *exec.Chain
	res   *exec.Result
	level int
}

// advance moves c to level (levels never decrease along a walk) and returns
// the answer there, reading nothing when c is already there. Level -1 reads
// the base table; any other folds the deltas c's chain has not read into it,
// answering bit for bit as a scan of the level's view would (exec.Chain).
func (rt *Runtime) advance(ctx context.Context, c *cursor, level int, sp *telemetry.Span) (*exec.Result, error) {
	if c.res != nil && c.level == level {
		return c.res, nil
	}
	var res *exec.Result
	var err error
	if level < 0 {
		res, err = rt.runPlan(ctx, c.plan, exec.FromTable(c.entry.Table), c.conf, c.joins, c.probe, sp)
	} else {
		if c.chain == nil {
			c.chain = exec.NewChain(c.plan, c.joins)
		}
		in := exec.FromDelta(c.fam.View(level), c.chain.Level()).Pruned(c.plan)
		res, err = rt.extend(ctx, c.chain, in, c.conf, c.probe, sp)
	}
	if err != nil {
		return nil, err
	}
	c.res, c.level = res, level
	return res, nil
}

// walk is one disjunct's part of an execution: its cursor, its prepared
// probe, the level its stop rule chose (-1: the base table) and the
// decision the rule made on the way.
type walk struct {
	cursor
	pd  *prepDisjunct
	to  int
	dec Decision
}

// execute answers q from prepared state: each disjunct's stop rule picks a
// level from the probe, then the walks step there together — in one step
// without emit, one level per step with it, each step but the last handed
// to emit with its level (the max across disjuncts). The last step's
// Response is returned, the same with emit or without.
func (rt *Runtime) execute(ctx context.Context, pq *prepared, q *sqlparser.Query, params []types.Value, sp *telemetry.Span, emit func(*Response, int) error) (*Response, error) {
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
	walks, err := rt.walks(pq, plan, q, params, conf)
	if err != nil {
		return nil, err
	}
	if pq.exact {
		emit = nil // one answer, the base table's: nothing to refine
	}
	steps := 0 // refinements: the most levels a walk climbs past its probe's
	if emit != nil {
		for _, w := range walks {
			if w.to >= 0 {
				steps = max(steps, w.to-w.pd.pv.Level)
			}
		}
	}
	for step := 0; ; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		final := step == steps
		scanSp, rsp := bsp, (*telemetry.Span)(nil)
		if bsp != nil && emit != nil {
			name := "refinement final"
			if !final {
				name = fmt.Sprintf("refinement %d", step)
			}
			rsp = bsp.Child(name)
			scanSp = rsp
		}
		parts := make([]*exec.Result, len(walks))
		decs := make([]Decision, len(walks))
		stepLevel := -1
		for i := range walks {
			w := &walks[i]
			level := w.to
			if emit != nil && level >= 0 {
				level = min(level, w.pd.pv.Level+step)
			}
			res, err := rt.advance(ctx, &w.cursor, level, scanSp)
			if err != nil {
				rsp.End()
				return nil, err
			}
			parts[i], decs[i] = res, rt.decisionAt(w, level)
			stepLevel = max(stepLevel, level)
		}
		resp := respond(plan, parts, decs, conf)
		if final {
			rsp.Note("final")
			rsp.End()
			for _, w := range walks {
				rt.recordLevel(w.to)
			}
			return resp, nil
		}
		if rsp != nil {
			rsp.Note(fmt.Sprintf("level=%d", stepLevel))
		}
		rsp.End()
		if err := emit(resp, stepLevel); err != nil {
			return nil, err
		}
	}
}

// walks starts one walk per disjunct of q (§4.1.2), or one on the base
// table for an exact template. With the parameters pq was prepared with, a
// walk starts at the probe's answer and continues its chain (§4.4).
func (rt *Runtime) walks(pq *prepared, plan *exec.Plan, q *sqlparser.Query, params []types.Value, conf float64) ([]walk, error) {
	base := cursor{plan: plan, joins: pq.joins, entry: pq.entry, conf: conf}
	if pq.exact {
		return []walk{{cursor: base, to: -1, dec: Decision{Reason: "no bounds: exact execution on base table"}}}, nil
	}
	// §4.1.2: rewrite disjunctions into parallel conjunctive sub-queries.
	preds := types.SplitDisjuncts(plan.Pred)
	if len(preds) != len(pq.disjuncts) {
		return nil, errTemplateMismatch
	}
	paramsEq := sqlparser.ParamsEqual(params, pq.prepParams)
	walks := make([]walk, len(preds))
	for i, pred := range preds {
		pd, w := pq.disjuncts[i], &walks[i]
		w.cursor, w.pd = base, pd
		w.plan, w.fam = plan.WithPred(pred), pd.fam
		w.dec, w.to = rt.stopRule(pq, pd, w.plan, q)
		if paramsEq && pd.fam != nil {
			w.res, w.level = pd.probe, pd.pv.Level
			if w.to > pd.pv.Level {
				w.chain = pd.chain.Swap(nil)
			}
		}
	}
	return walks, nil
}

// stopRule is §4.2 resolution selection for one disjunct from its probe:
// the error bound's row requirement (levelForRows) under the time bound's
// cap (levelForTime), and at least the probe's level. It returns the
// decision so far and the level to answer at: -1, the base table, with no
// samples or an error bound the samples cannot meet and no time bound.
func (rt *Runtime) stopRule(pq *prepared, pd *prepDisjunct, plan *exec.Plan, q *sqlparser.Query) (Decision, int) {
	dec := pd.famDec // copy; Probed slice is shared and immutable
	if pd.fam == nil {
		dec.Reason = "no sample families available: exact execution"
		return dec, -1
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
		maxLevel = rt.levelForTime(pq.entry, fam, plan, q.Time.Seconds, dec.ProbeLatency+rt.broadcastCost(pq.joins), pv)
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
			dec.Reason += "; largest sample insufficient for error bound" +
				"; error bound unreachable on samples: exact execution"
			return dec, -1
		}
	case q.Time != nil:
		level = maxLevel
	}
	dec.Reason += fmt.Sprintf("; resolution %d/%d (K=%d)", level, fam.Resolutions()-1, fam.View(level).Cap())
	// The probe's blocks are already read; answering from at least the
	// probe's resolution costs nothing extra and can only improve accuracy.
	return dec, max(level, pv.Level)
}

// decisionAt is w's decision for its answer at level: the stop rule's, with
// the read's price — the base table, or the deltas past the probe's level
// alone (§4.4) — and at a sample level the view and the bound the profile
// projects there. Short of the stop rule's level it is a streamed
// refinement, and says so.
func (rt *Runtime) decisionAt(w *walk, level int) Decision {
	dec := w.dec
	if level < 0 {
		dec.UsedBase = true
		dec.ReadLatency = rt.tablePrice(w.entry) + rt.broadcastCost(w.joins)
		return dec
	}
	fam, pv := w.pd.fam, w.pd.pv
	view := fam.View(level)
	dec.View = view
	dec.PredictedBound = predictedBound(fam, w.pd.probe, level, pv, w.conf)
	dec.ReadLatency = rt.readPrice(w.entry, w.plan, view.DeltaBlocks(pv)) + rt.broadcastCost(w.joins)
	if level < w.to {
		dec.Reason += fmt.Sprintf("; streaming refinement at resolution %d/%d (K=%d)", level, fam.Resolutions()-1, view.Cap())
	}
	return dec
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
