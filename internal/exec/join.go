package exec

import (
	"context"
	"fmt"
	"math"
	"strings"

	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/telemetry"
	"blinkdb/internal/types"
)

// JoinSpec is one compiled equi-join against an in-memory dimension table
// (§2.1's common case: a large fact table joined with dimension tables
// small enough to broadcast to every node).
type JoinSpec struct {
	// Dim is the dimension table (broadcast, unsampled).
	Dim *storage.Table
	// LeftCol indexes the accumulated left-side schema.
	LeftCol int
	// RightCol indexes the dimension table's schema.
	RightCol int
}

// JoinedSchema builds the output schema of fact ⋈ dims: fact columns keep
// their names; dimension columns that collide with an existing name are
// qualified as "table.col". Returns the combined schema and, per join, the
// offset where that dimension's columns start.
func JoinedSchema(fact *types.Schema, dims []*storage.Table) (*types.Schema, []int, error) {
	cols := append([]types.Column{}, fact.Columns...)
	used := map[string]bool{}
	for _, c := range fact.Columns {
		used[strings.ToLower(c.Name)] = true
	}
	offsets := make([]int, len(dims))
	for di, d := range dims {
		offsets[di] = len(cols)
		for _, c := range d.Schema.Columns {
			name := c.Name
			if used[strings.ToLower(name)] {
				name = strings.ToLower(d.Name) + "." + c.Name
				if used[strings.ToLower(name)] {
					return nil, nil, fmt.Errorf("exec: column %q ambiguous even qualified", name)
				}
			}
			used[strings.ToLower(name)] = true
			cols = append(cols, types.Column{Name: name, Kind: c.Kind})
		}
	}
	return types.NewSchema(cols...), offsets, nil
}

// CompileJoins resolves a query's JOIN clauses against the fact schema and
// a dimension lookup function, returning the combined schema and compiled
// join specs. Join columns may be qualified ("dim.col").
func CompileJoins(q *sqlparser.Query, fact *types.Schema,
	lookup func(table string) (*storage.Table, error)) (*types.Schema, []JoinSpec, error) {

	dims := make([]*storage.Table, len(q.Joins))
	for i, j := range q.Joins {
		d, err := lookup(j.Table)
		if err != nil {
			return nil, nil, err
		}
		dims[i] = d
	}
	combined, offsets, err := JoinedSchema(fact, dims)
	if err != nil {
		return nil, nil, err
	}
	specs := make([]JoinSpec, len(q.Joins))
	for i, j := range q.Joins {
		// The left column resolves against the combined schema (it may
		// reference the fact table or an earlier join's output).
		li := combined.Index(j.LeftCol)
		if li < 0 {
			return nil, nil, fmt.Errorf("exec: join column %q not found", j.LeftCol)
		}
		// The right column resolves within the joined dimension; accept
		// both bare and "table.col" qualified forms.
		rname := j.RightCol
		if k := strings.IndexByte(rname, '.'); k >= 0 {
			if !strings.EqualFold(rname[:k], j.Table) {
				return nil, nil, fmt.Errorf("exec: join column %q does not reference %s", rname, j.Table)
			}
			rname = rname[k+1:]
		}
		ri := dims[i].Schema.Index(rname)
		if ri < 0 {
			return nil, nil, fmt.Errorf("exec: join column %q not in %s", j.RightCol, j.Table)
		}
		specs[i] = JoinSpec{Dim: dims[i], LeftCol: li, RightCol: ri}
	}
	_ = offsets
	return combined, specs, nil
}

// joinIndex is a hash index over one dimension table, bucketed by kind so
// probes never render a string key. The bucketing preserves Value.Key()'s
// equivalence classes exactly: ints and bools share the integer buckets
// (Key folds Bool(true) into Int(1)), floats bucket by payload bits with
// NaN canonicalised (every NaN renders the same Key), strings by value,
// NULLs together. Per-bucket row order is the dimension scan order, which
// fixes the expansion order downstream.
type joinIndex struct {
	intRows   map[int64][]types.Row
	floatRows map[uint64][]types.Row
	strRows   map[string][]types.Row
	nullRows  []types.Row
	spec      JoinSpec
}

// canonNaN is the shared bucket for every NaN payload (Value.Key renders
// all NaNs identically, so they must join with each other).
var canonNaN = math.Float64bits(math.NaN())

func floatBucket(f float64) uint64 {
	if f != f {
		return canonNaN
	}
	return math.Float64bits(f)
}

func buildJoinIndex(spec JoinSpec) *joinIndex {
	idx := &joinIndex{
		intRows:   map[int64][]types.Row{},
		floatRows: map[uint64][]types.Row{},
		strRows:   map[string][]types.Row{},
		spec:      spec,
	}
	spec.Dim.Scan(func(r types.Row, _ storage.RowMeta) bool {
		switch v := r[spec.RightCol]; v.Kind {
		case types.KindInt, types.KindBool:
			idx.intRows[v.I] = append(idx.intRows[v.I], r)
		case types.KindFloat:
			b := floatBucket(v.F)
			idx.floatRows[b] = append(idx.floatRows[b], r)
		case types.KindString:
			idx.strRows[v.S] = append(idx.strRows[v.S], r)
		default:
			idx.nullRows = append(idx.nullRows, r)
		}
		return true
	})
	return idx
}

// lookup returns the dimension rows matching the probe value, allocation-
// free.
func (idx *joinIndex) lookup(v types.Value) []types.Row {
	switch v.Kind {
	case types.KindInt, types.KindBool:
		return idx.intRows[v.I]
	case types.KindFloat:
		return idx.floatRows[floatBucket(v.F)]
	case types.KindString:
		return idx.strRows[v.S]
	default:
		return idx.nullRows
	}
}

// joinRuntime is the precompiled state for one join execution: the
// dimension indexes, the combined-row geometry, and the predicate split
// into the fact-only conjuncts (evaluated columnar, before expansion) and
// the remainder (evaluated on combined rows).
type joinRuntime struct {
	idxs []*joinIndex
	// width is the combined schema's column count — the pooled buffer
	// size, fixed at plan time.
	width int
	// factW is the fact schema's column count; combined rows hold the
	// fact columns at [0, factW) and each dimension after the previous.
	factW int
	// factPred is the conjunction of predicate conjuncts that reference
	// only fact columns, as the columnar scan evaluates it (see
	// mergeIntervals; nil: no fact-side filtering).
	factPred types.Predicate
	// restPred is the compiled remainder (nil: always true). factPred AND
	// restPred ≡ the plan predicate.
	restPred func(types.Row) bool
}

// newJoinRuntime builds the runtime for plan p (compiled against the
// combined schema) joining fact input in with the given specs.
func newJoinRuntime(p *Plan, joins []JoinSpec) *joinRuntime {
	jr := &joinRuntime{width: p.Schema.Len()}
	factW := jr.width
	for _, j := range joins {
		factW -= j.Dim.Schema.Len()
	}
	jr.factW = factW
	for _, j := range joins {
		jr.idxs = append(jr.idxs, buildJoinIndex(j))
	}
	factPred, restPred := splitJoinPred(p.Pred, factW)
	if factPred != nil {
		jr.factPred = mergeIntervals(factPred)
	}
	if restPred != nil {
		jr.restPred = types.CompilePredicate(restPred)
	}
	return jr
}

// splitJoinPred partitions the predicate's top-level conjuncts by whether
// they reference only fact columns. Conjuncts straddling the sides — or a
// predicate whose top level is not a conjunction — stay whole on the rest
// side (conservative: factPred may under-filter, never over-filter).
func splitJoinPred(pred types.Predicate, factW int) (fact, rest types.Predicate) {
	var factKids, restKids []types.Predicate
	var walk func(p types.Predicate)
	walk = func(p types.Predicate) {
		if t, ok := p.(*types.AndPred); ok {
			for _, k := range t.Kids {
				walk(k)
			}
			return
		}
		if _, ok := p.(types.TruePred); ok {
			return // contributes nothing to either side
		}
		if maxPredCol(p) < factW {
			factKids = append(factKids, p)
		} else {
			restKids = append(restKids, p)
		}
	}
	if pred != nil {
		walk(pred)
	}
	return joinConjuncts(factKids), joinConjuncts(restKids)
}

func joinConjuncts(kids []types.Predicate) types.Predicate {
	switch len(kids) {
	case 0:
		return nil
	case 1:
		return kids[0]
	default:
		return &types.AndPred{Kids: kids}
	}
}

// maxPredCol returns the largest column index the predicate can read
// (-1 for none). Unknown predicate implementations report the maximum, so
// they are never treated as fact-only.
func maxPredCol(p types.Predicate) int {
	max := -1
	grow := func(c int) {
		if c > max {
			max = c
		}
	}
	switch t := p.(type) {
	case types.TruePred:
	case *types.CmpPred:
		grow(t.ColIdx)
	case *types.AndPred:
		for _, k := range t.Kids {
			grow(maxPredCol(k))
		}
	case *types.OrPred:
		for _, k := range t.Kids {
			grow(maxPredCol(k))
		}
	case *types.NotPred:
		grow(maxPredCol(t.Kid))
	default:
		return int(^uint(0) >> 1)
	}
	return max
}

// expandInto enumerates the join chain from depth onward into buf, whose
// first n columns hold the accumulated left side, invoking emit with the
// full combined row for every complete expansion. buf is reused across
// emissions — callers must not retain the emitted row (addMatched
// copies everything it keeps).
func (jr *joinRuntime) expandInto(buf types.Row, n, depth int, emit func(types.Row)) {
	if depth == len(jr.idxs) {
		emit(buf[:n])
		return
	}
	ix := jr.idxs[depth]
	for _, dimRow := range ix.lookup(buf[ix.spec.LeftCol]) {
		copy(buf[n:n+len(dimRow)], dimRow)
		jr.expandInto(buf, n+len(dimRow), depth+1, emit)
	}
}

// RunJoin executes the plan over fact ⋈ dims: the fact side streams from
// `in` (a base table or a sample view — rates carry through unchanged,
// since dimensions are unsampled, §2.1); dimension rows are hash-joined in
// memory. plan must be compiled against the combined schema. The join
// indexes are built once up front and then shared read-only across the
// scan workers; like RunParallel, the Result is bit-identical for every
// workers value. ctx and sp follow RunParallelSchedCtx's contract: workers
// re-check ctx between scan ranges, a pre-cancelled context scans nothing,
// a nil error guarantees the bit-identical Result, and a non-nil sp covers
// the join-index build and the fact-side scan. With no joins it is the
// plain scan.
func RunJoin(ctx context.Context, p *Plan, in Input, joins []JoinSpec, confidence float64, workers int, sp *telemetry.Span) (*Result, error) {
	if len(joins) == 0 {
		return runRanges(ctx, p, p.runtime(), in, confidence, workers, nil, sp)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	jr := buildJoinRuntime(p, joins, sp)
	// The scan drives expansion through jr (scanSpanJoin): fact predicate
	// first, probe keys straight from the columns, materialise only matched
	// rows.
	in.Schema = p.Schema
	return runRanges(ctx, p, p.runtime(), in, confidence, workers, jr, sp)
}

// buildJoinRuntime builds the join indexes of plan p under a "join-index
// build" span of sp (nil: no span).
func buildJoinRuntime(p *Plan, joins []JoinSpec, sp *telemetry.Span) *joinRuntime {
	var buildSp *telemetry.Span
	if sp != nil {
		buildSp = sp.Child("join-index build")
	}
	jr := newJoinRuntime(p, joins)
	buildSp.End()
	return jr
}
