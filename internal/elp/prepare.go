package elp

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"blinkdb/internal/catalog"
	"blinkdb/internal/exec"
	"blinkdb/internal/sample"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/telemetry"
	"blinkdb/internal/types"
)

// errTemplateMismatch signals that a prepared template cannot serve a
// query (different template shape); callers re-prepare.
var errTemplateMismatch = errors.New("elp: query does not match the prepared template")

// prepared is the reusable outcome of preparing one query template: the
// resolved catalog snapshot, compiled join specs, and — for bounded
// queries — each disjunct's probed family, probe result and Error-Latency
// Profile inputs. execute binds fresh constants and bounds against this
// state without re-probing.
//
// A prepared template is safe for concurrent executions: everything
// written by prepare is immutable afterwards, except a probe's chain, which
// the first walk to continue it takes.
type prepared struct {
	// key is the template key (sqlparser.Normalize) this state serves.
	key string

	entry *catalog.Entry // catalog snapshot at prepare time
	// schema is the scan schema: the fact table's, or the join-expanded
	// one when the template has JOIN clauses.
	schema *types.Schema
	joins  []exec.JoinSpec
	// exact marks unbounded templates (no ERROR/WITHIN bound): they run
	// on the base table and carry no probe state.
	exact bool
	// prepParams is the parameter vector prepare ran with. Cached RESULTS
	// (probe answers and the probe's chain) may only answer queries whose
	// parameters equal it; cached DECISION state (family choice, probe
	// statistics, ELP fit) is template-scoped and serves any constants.
	prepParams []types.Value
	// prepQ/prepPlan are the exact query object prepare compiled and its
	// plan; execute reuses the plan when handed the same object (the
	// cache-off and miss paths), skipping a second compile.
	prepQ    *sqlparser.Query
	prepPlan *exec.Plan

	disjuncts []*prepDisjunct
}

// prepDisjunct is the prepared state of one conjunctive sub-query
// (§4.1.2 disjunct): the §4.1.1 family choice with its probe outcomes,
// and where the probe's walk ended, which §4.2 resolution selection
// extrapolates from.
type prepDisjunct struct {
	// fam is the selected family; nil when the table has no usable
	// samples (exact execution).
	fam *sample.Family
	// famDec is the Decision skeleton selectFamily produced: probed
	// candidates with selectivities, probe latency, reason prefix.
	famDec Decision
	// pv/probe/probeLat are where the probe's walk ended: the escalated
	// probe view, its result, and the accumulated probe latency.
	pv       sample.View
	probe    *exec.Result
	probeLat float64
	// chain is the probe's scan state through pv, which the first walk
	// with prepare's parameters past pv takes and continues (§4.4),
	// scanning the deltas past pv alone — the read right after a prepare.
	// Later walks start a chain of their own: the same answer, bit for
	// bit.
	chain atomic.Pointer[exec.Chain]
}

// confidenceFor derives the CI level for a query: its ERROR clause's, else
// its RELATIVE ERROR projection's (sqlparser.Parse holds both to (0, 1)).
func (rt *Runtime) confidenceFor(q *sqlparser.Query) float64 {
	switch {
	case q.Err != nil:
		return q.Err.Confidence
	case q.ReportError:
		return q.ReportConfidence
	}
	return sqlparser.DefaultConfidence
}

// prepare compiles a query template and builds its reusable runtime state:
// catalog/join resolution, and — for bounded queries — per disjunct the
// §4.1.1 family selection (probing the smallest samples where needed) and
// the §4.2 probe walk the Error-Latency Profile is extrapolated from. The
// result answers any query with the same template (key, params:
// sqlparser.Normalize's) for as long as the catalog version it was
// prepared under lasts (the plan cache keeps it in that version's
// generation). The prepare phase and its probes are recorded under sp.
func (rt *Runtime) prepare(ctx context.Context, q *sqlparser.Query, key string, params []types.Value, sp *telemetry.Span) (*prepared, error) {
	psp := sp.Child("prepare")
	defer psp.End()
	rt.bump(&rt.stats.Prepares)
	entry, err := rt.cat.Lookup(q.Table)
	if err != nil {
		return nil, err
	}
	pq := &prepared{
		key:        key,
		entry:      entry,
		prepParams: params,
	}
	pq.schema = entry.Table.Schema
	if len(q.Joins) > 0 {
		pq.schema, pq.joins, err = exec.CompileJoins(q, entry.Table.Schema,
			func(table string) (*storage.Table, error) {
				de, err := rt.cat.Lookup(table)
				if err != nil {
					return nil, err
				}
				return de.Table, nil
			})
		if err != nil {
			return nil, err
		}
		if err := rt.checkJoinAdmissible(entry, q, pq.joins); err != nil {
			return nil, err
		}
	}
	plan, err := exec.Compile(q, pq.schema)
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
	groupCols := types.NewColumnSet(q.GroupBy...)
	own, scan := disjuncts(plan.Pred)
	for i, pred := range scan {
		// Sample selection considers only fact-table columns: samples
		// exist on the fact side; dimension columns are joined exactly.
		phi := factColumns(own[i].Columns().Union(groupCols), entry.Table.Schema)
		pd, err := rt.prepareConjunctive(ctx, entry, plan.WithPred(pred), phi, q, conf, pq.joins, psp)
		if err != nil {
			return nil, err
		}
		pq.disjuncts = append(pq.disjuncts, pd)
	}
	return pq, nil
}

// disjuncts rewrites a predicate into the conjunctive sub-queries of
// §4.1.2 (own: types.SplitDisjuncts) and makes them disjoint: sub-query i
// scans d_i AND NOT d_1 … AND NOT d_(i−1), so a row that matches several
// disjuncts is counted by the first alone and the merged answer sums
// disjoint parts. NOT is two-valued over the selection bitmaps, so the
// scans partition the rows the predicate selects exactly. Family choice
// reads d_i's own columns; the NOT terms only trim what d_i matched.
func disjuncts(pred types.Predicate) (own, scan []types.Predicate) {
	own = types.SplitDisjuncts(pred)
	if len(own) == 1 {
		return own, own
	}
	scan = append(make([]types.Predicate, 0, len(own)), own[0])
	for i, d := range own[1:] {
		var kids []types.Predicate
		if and, ok := d.(*types.AndPred); ok {
			kids = append(kids, and.Kids...)
		} else {
			kids = append(kids, d)
		}
		for _, prev := range own[:i+1] {
			kids = append(kids, &types.NotPred{Kid: prev})
		}
		scan = append(scan, &types.AndPred{Kids: kids})
	}
	return own, scan
}

// prepareConjunctive runs the probing half of planning one conjunctive
// sub-query: §4.1.1 family selection, then the §4.2 probe walk — for an
// error bound, up one level at a time until the probe carries signal (≥20
// matching rows). Only the FIRST probe is priced as cheap; each escalation
// reads the next delta alone and is priced (and budget-limited) for it.
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
	// The walk goes on from selectFamily's run of the plan, if it made one.
	c := &cursor{plan: plan, joins: joins, entry: entry, fam: fam, conf: conf, probe: true, chain: chain, res: probe, level: pv.Level}
	if probe == nil {
		var psp *telemetry.Span
		if sp != nil {
			psp = sp.Child("probe " + fam.Label())
		}
		probe, err = rt.advance(ctx, c, pv.Level, psp)
		psp.End()
		if err != nil {
			return nil, err
		}
	}
	probeLat := probePrice(len(viewInput(pv, plan).Blocks))
	for q.Err != nil && probe.RowsMatched < 20 && pv.Level < fam.Resolutions()-1 {
		next := fam.View(pv.Level + 1)
		step := rt.readPrice(entry, plan, next.DeltaBlocks(pv))
		if q.Time != nil && probeLat+step+rt.broadcastCost(joins) > q.Time.Seconds {
			break // escalating further would blow the time bound
		}
		var esp *telemetry.Span
		if sp != nil {
			esp = sp.Child(fmt.Sprintf("probe escalate L%d %s", next.Level, fam.Label()))
		}
		probe, err = rt.advance(ctx, c, next.Level, esp)
		esp.End()
		if err != nil {
			return nil, err
		}
		pv = next
		probeLat += step
	}
	pd.pv, pd.probe, pd.probeLat = pv, probe, probeLat
	pd.chain.Store(c.chain)
	return pd, nil
}
