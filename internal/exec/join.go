package exec

import (
	"context"
	"fmt"
	"math"
	"strings"

	"blinkdb/internal/colstore"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/telemetry"
	"blinkdb/internal/types"
)

// JoinSpec is one compiled equi-join against an in-memory dimension table
// (§2.1's common case: a large fact table joined with dimension tables
// small enough to broadcast to every node). Each fact row joins at most one
// dimension row: a dimension whose join key repeats is refused when the
// spec is built (newJoinSpec), so a join never multiplies rows.
type JoinSpec struct {
	// Dim is the dimension table (broadcast, unsampled).
	Dim *storage.Table
	// LeftCol indexes the accumulated left-side schema.
	LeftCol int
	// RightCol indexes the dimension table's schema.
	RightCol int

	// idx is Dim by its join key, built once with the spec.
	idx *joinIndex
}

// JoinedSchema builds the output schema of fact ⋈ dims: fact columns keep
// their names; dimension columns that collide with an existing name are
// qualified as "table.col". Each dimension's columns follow the previous
// one's.
func JoinedSchema(fact *types.Schema, dims []*storage.Table) (*types.Schema, error) {
	cols := append([]types.Column{}, fact.Columns...)
	used := map[string]bool{}
	for _, c := range fact.Columns {
		used[strings.ToLower(c.Name)] = true
	}
	for _, d := range dims {
		for _, c := range d.Schema.Columns {
			name := c.Name
			if used[strings.ToLower(name)] {
				name = strings.ToLower(d.Name) + "." + c.Name
				if used[strings.ToLower(name)] {
					return nil, fmt.Errorf("exec: column %q ambiguous even qualified", name)
				}
			}
			used[strings.ToLower(name)] = true
			cols = append(cols, types.Column{Name: name, Kind: c.Kind})
		}
	}
	return types.NewSchema(cols...), nil
}

// CompileJoins resolves a query's JOIN clauses against the fact schema and
// a dimension lookup function, returning the combined schema and compiled
// join specs, each with its dimension's key index. Join columns may be
// qualified ("dim.col").
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
	combined, err := JoinedSchema(fact, dims)
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
		if specs[i], err = newJoinSpec(dims[i], li, ri); err != nil {
			return nil, nil, err
		}
	}
	return combined, specs, nil
}

// newJoinSpec compiles the join of the left side's column left with column
// right of dim, indexing dim by right. It fails when two dimension rows
// share a key.
func newJoinSpec(dim *storage.Table, left, right int) (JoinSpec, error) {
	idx, err := buildJoinIndex(dim, right)
	if err != nil {
		return JoinSpec{}, err
	}
	return JoinSpec{Dim: dim, LeftCol: left, RightCol: right, idx: idx}, nil
}

// joinIndex is a dimension table by its join key: the row each key names,
// and the table's columns as value slices indexed by row. Keys are bucketed
// by kind so lookups never render a string key, and the bucketing keeps
// Value.Key()'s equivalence classes exactly: ints and bools share the
// integer buckets (Key folds Bool(true) into Int(1)), floats bucket by
// payload bits with NaN canonicalised (every NaN renders the same Key),
// strings by value, NULLs together (NULL joins NULL).
type joinIndex struct {
	intRows   map[int64]int32
	floatRows map[uint64]int32
	strRows   map[string]int32
	nullRow   int32 // -1: no NULL key
	cols      [][]types.Value
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

// buildJoinIndex indexes dim by column keyCol, refusing a key two rows
// share.
func buildJoinIndex(dim *storage.Table, keyCol int) (*joinIndex, error) {
	idx := &joinIndex{
		intRows:   map[int64]int32{},
		floatRows: map[uint64]int32{},
		strRows:   map[string]int32{},
		nullRow:   -1,
		cols:      make([][]types.Value, dim.Schema.Len()),
	}
	var err error
	dim.Scan(func(r types.Row, _ storage.RowMeta) bool {
		v, row := r[keyCol], int32(len(idx.cols[0]))
		if idx.lookup(v) >= 0 {
			err = fmt.Errorf("exec: join key %s repeats in %s", v, dim.Name)
			return false
		}
		switch v.Kind {
		case types.KindInt, types.KindBool:
			idx.intRows[v.I] = row
		case types.KindFloat:
			idx.floatRows[floatBucket(v.F)] = row
		case types.KindString:
			idx.strRows[v.S] = row
		default:
			idx.nullRow = row
		}
		for c, x := range r {
			idx.cols[c] = append(idx.cols[c], x)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// lookup returns the dimension row whose key matches v, -1 when none does,
// allocation-free.
func (idx *joinIndex) lookup(v types.Value) int32 {
	var r int32
	ok := false
	switch v.Kind {
	case types.KindInt, types.KindBool:
		r, ok = idx.intRows[v.I]
	case types.KindFloat:
		r, ok = idx.floatRows[floatBucket(v.F)]
	case types.KindString:
		r, ok = idx.strRows[v.S]
	default:
		return idx.nullRow
	}
	if !ok {
		return -1
	}
	return r
}

// joinRuntime is how a plan over fact ⋈ dims scans: each fact chunk is
// widened into a chunk whose rows are the join's output rows — the fact
// columns, one EncValue column per dimension column, gathered for a span's
// rows by key lookup (widen), and a match column, 1 where the row found a
// dimension row in every join — and the plain span scan runs over it with
// the plan's predicate AND match = 1. Rows keep their fact row numbers, so
// an output row adds to its fact row's lane and takes its fact row's class
// key: the widened scan folds what a row-at-a-time join would.
type joinRuntime struct {
	joins []JoinSpec
	// factW is the fact schema's column count; dimension columns follow,
	// each join's after the previous one's, and the match column is last,
	// at index width.
	factW, width int
	// rt is the scan's compiled predicate: the plan's AND match = 1. Its
	// pruning bounds are the plan's (no zone covers a gathered column); it
	// has no leaves, since no zone proves the match column, so every block
	// is selected row by row and unmatched rows drop everywhere.
	rt *planRuntime
}

// newJoinRuntime builds the widened scan of plan p, compiled against the
// combined schema, joining with joins; nil when there are none.
func newJoinRuntime(p *Plan, joins []JoinSpec) *joinRuntime {
	if len(joins) == 0 {
		return nil
	}
	jr := &joinRuntime{joins: joins, width: p.Schema.Len()}
	jr.factW = jr.width
	for _, j := range joins {
		jr.factW -= j.Dim.Schema.Len()
	}
	match := &types.CmpPred{Col: "match", ColIdx: jr.width, Op: types.CmpEq, Val: types.Int(1)}
	jr.rt = &planRuntime{
		bounds: p.rt.bounds,
		sel:    mergeIntervals(&types.AndPred{Kids: []types.Predicate{p.rt.sel, match}}),
	}
	return jr
}

// runtime returns the compiled predicate a scan of p evaluates: the plan's
// own for a plain scan (jr nil), the widened scan's for a join. An input
// pruned for the plan is checked against the same bounds again by a join
// scan, whose runtime is not the plan's.
func (jr *joinRuntime) runtime(p *Plan) *planRuntime {
	if jr == nil {
		return p.rt
	}
	return jr.rt
}

// wideChunk is a fact chunk widened for one join scan: the header — the
// chunk's columns, the join's dimension columns and the match column — and,
// for each join keyed on a dictionary column of the chunk without NULLs,
// the dimension row of every code (-1: none), looked up once for the chunk
// rather than once a row.
type wideChunk struct {
	d        *colstore.Data
	codeRows [][]int32
}

// wideKey names one widened chunk: a fact chunk, for one join scan.
type wideKey struct {
	jr *joinRuntime
	d  *colstore.Data
}

// widened returns chunk d widened for jr's scan, its gathered columns over
// the scratch's payloads, grown to d's rows.
func (sc *colScratch) widened(jr *joinRuntime, d *colstore.Data) *wideChunk {
	key := wideKey{jr, d}
	w := sc.wideHdrs[key]
	if w == nil {
		w = &wideChunk{
			d:        &colstore.Data{N: d.N, Cols: make([]colstore.Column, jr.width+1), MetaEnds: d.MetaEnds, Rates: d.Rates, Freqs: d.Freqs},
			codeRows: make([][]int32, len(jr.joins)),
		}
		copy(w.d.Cols, d.Cols)
		for c := jr.factW; c < jr.width; c++ {
			w.d.Cols[c].Enc = colstore.EncValue
		}
		w.d.Cols[jr.width].Enc = colstore.EncInt // narrow: Base 0, Offs
		for ji, j := range jr.joins {
			if j.LeftCol >= jr.factW {
				continue // keyed on an earlier join's gathered column
			}
			if c := &d.Cols[j.LeftCol]; c.Enc == colstore.EncDict && c.Nulls == nil {
				w.codeRows[ji] = make([]int32, len(c.Dict))
				for code, s := range c.Dict {
					w.codeRows[ji][code] = j.idx.lookup(types.Str(s))
				}
			}
		}
		if sc.wideHdrs == nil {
			sc.wideHdrs = make(map[wideKey]*wideChunk)
		}
		sc.wideHdrs[key] = w
	}
	for len(sc.joinVals) < jr.width-jr.factW {
		sc.joinVals = append(sc.joinVals, nil)
	}
	for c := jr.factW; c < jr.width; c++ {
		w.d.Cols[c].Values = grow(&sc.joinVals[c-jr.factW], d.N)
	}
	w.d.Cols[jr.width].Offs = grow(&sc.joinMatch, d.N)
	return w
}

// widen returns span s over its chunk's widened form, with the dimension
// and match columns gathered for the span's rows. Earlier rows of the
// gathered columns hold whatever an earlier span left there: the kernels
// read from the 64-row boundary before a span, but mask those rows off.
func (jr *joinRuntime) widen(s span, sc *colScratch) span {
	w := sc.widened(jr, s.d)
	cols := w.d.Cols
	match := cols[jr.width].Offs
	for i := s.lo; i < s.hi; i++ {
		match[i] = 1
	}
	off := jr.factW
	for ji, j := range jr.joins {
		key, dims, codeRows := &cols[j.LeftCol], cols[off:off+len(j.idx.cols)], w.codeRows[ji]
		for i := s.lo; i < s.hi; i++ {
			if match[i] == 0 {
				continue
			}
			var r int32
			if codeRows != nil {
				r = codeRows[key.Code(i)]
			} else {
				r = j.idx.lookup(key.Value(i))
			}
			if r < 0 {
				match[i] = 0
				continue
			}
			for c := range dims {
				dims[c].Values[i] = j.idx.cols[c][r]
			}
		}
		off += len(dims)
	}
	s.d = w.d
	return s
}

// RunJoin executes the plan over fact ⋈ dims: the fact side streams from
// `in` (a base table or a sample view — rates carry through unchanged,
// since dimensions are unsampled, §2.1) and each span is widened with its
// rows' dimension columns (joinRuntime) before the plain span scan. plan
// must be compiled against the combined schema; the specs' indexes are
// shared read-only across the scan workers. Like RunParallel, the Result
// is bit-identical for every workers value. ctx and sp follow
// RunParallelSchedCtx's contract: workers re-check ctx between scan ranges,
// a pre-cancelled context scans nothing, a nil error guarantees the
// bit-identical Result, and a non-nil sp covers the scan. With no joins it
// is the plain scan.
func RunJoin(ctx context.Context, p *Plan, in Input, joins []JoinSpec, confidence float64, workers int, sp *telemetry.Span) (*Result, error) {
	jr := newJoinRuntime(p, joins)
	return runRanges(ctx, p, jr.runtime(p), in, confidence, workers, jr, sp)
}
