package colstore

import (
	"slices"

	"blinkdb/internal/types"
)

// RLE selection thresholds: a column is run-length encoded when its mean
// run length reaches the threshold (runs ≤ n/threshold), i.e. when one
// per-run verdict replaces at least that many per-row ones. Columns
// hinted sorted (HintSorted) use the lower bar: stratification columns
// are sorted across strata by construction, so even short runs are
// structural, not luck, and survive refreshes.
const (
	rleMinRows          = 16
	rleMinMeanRun       = 8
	rleHintedMinMeanRun = 2
)

// Builder accumulates one chunk's rows and encodes them into a Data:
// Append rows (with their sampling metadata), AppendColumns a batch of
// them or AppendGather a list of rows of encoded chunks, then Finish to
// freeze the payload. Values accumulate in their typed form
// from the first row on — a column only falls back to verbatim values
// when its non-null kinds actually mix — so a column degrades gracefully
// instead of ever rejecting a row, and Finish has nothing left to decode.
// The accumulators are kept across Finish calls: a builder that writes
// many chunks grows its buffers once.
type Builder struct {
	cols []colAcc
	n    int

	// The sampling metadata as runs (see Data).
	metaEnds []int32
	rates    []float64
	freqs    []int64

	// sorted marks columns hinted as sorted/low-cardinality.
	sorted []bool

	// workers bounds the goroutines the per-column work fans out over.
	workers int

	// gsrcs is the chunk list of the last AppendGather, which every
	// accumulator's gather table is laid out over.
	gsrcs []*Data
}

// NewBuilder creates a builder for chunks of numCols columns.
func NewBuilder(numCols int) *Builder {
	return &Builder{cols: make([]colAcc, numCols)}
}

// HintSorted marks columns as sorted (or low-cardinality-clustered) so
// the encoder accepts shorter runs for them. Out-of-range indices are
// ignored. The hint never affects correctness — only the RLE threshold.
func (b *Builder) HintSorted(cols ...int) {
	if b.sorted == nil {
		b.sorted = make([]bool, len(b.cols))
	}
	for _, c := range cols {
		if c >= 0 && c < len(b.sorted) {
			b.sorted[c] = true
		}
	}
}

// SetWorkers fans AppendColumns and Finish out over up to n
// goroutines, a column to a goroutine at a time; a builder it is not
// called on starts none. Columns are independent accumulators, so the
// chunks are the same for every n.
func (b *Builder) SetWorkers(n int) { b.workers = n }

// Len returns the number of rows appended so far.
func (b *Builder) Len() int { return b.n }

// Append adds one row. len(r) must equal the builder's column count;
// short rows are padded with NULLs. The values are copied: r is not
// retained, so a caller may reuse one row buffer for every Append.
func (b *Builder) Append(r types.Row, rate float64, freq int64) {
	for c := range b.cols {
		v := types.Null()
		if c < len(r) {
			v = r[c]
		}
		b.cols[c].append(v, b.n)
	}
	b.appendMeta(rate, freq, 1)
	b.n++
}

// AppendColumns adds rows [lo, hi) of cols, where cols[c] holds column c's
// values, each row with the same sampling metadata: the builder ends up in
// the state appending the rows one by one leaves it in. cols has one slice
// per column of the builder; the values are copied, not retained.
func (b *Builder) AppendColumns(cols [][]types.Value, lo, hi int, rate float64, freq int64) {
	ParallelFor(len(b.cols), b.workers, func(c int) {
		a := &b.cols[c]
		for i, v := range cols[c][lo:hi] {
			a.append(v, b.n+i)
		}
	})
	b.appendMeta(rate, freq, hi-lo)
	b.n += hi - lo
}

// Loc locates one row of a gather: row Row of chunk Chunk of its list.
type Loc struct{ Chunk, Row int32 }

// AppendGather adds row locs[k].Row of srcs[locs[k].Chunk], for each k in
// order, every row with the same sampling metadata: the builder ends up in
// the state appending the rows one by one leaves it in. The chunks have the
// builder's width. Rows go column at a time as their payloads: a float or
// int as it is stored, a dictionary code translated through a table per
// source chunk filled the first time the code is met, which holds until
// Finish while the chunk list stays the same. The columns go one after
// another on the calling goroutine: a call copies one stratum's rows, and a
// sample build runs its families, not their columns, in parallel.
func (b *Builder) AppendGather(srcs []*Data, locs []Loc, rate float64, freq int64) {
	if len(locs) == 0 {
		return
	}
	relayout := !slices.Equal(b.gsrcs, srcs)
	if relayout {
		b.gsrcs = append(b.gsrcs[:0], srcs...)
	}
	for c := range b.cols {
		a := &b.cols[c]
		if relayout {
			a.layout(srcs, c)
		}
		a.gather(srcs, c, locs, b.n)
	}
	b.appendMeta(rate, freq, len(locs))
	b.n += len(locs)
}

// appendMeta records count more rows of one (rate, freq) pair, extending
// the open metadata run when the pair repeats.
func (b *Builder) appendMeta(rate float64, freq int64, count int) {
	end := int32(count)
	if k := len(b.metaEnds); k > 0 {
		if b.rates[k-1] == rate && b.freqs[k-1] == freq {
			b.metaEnds[k-1] += end
			return
		}
		end += b.metaEnds[k-1]
	}
	b.metaEnds = append(b.metaEnds, end)
	b.rates = append(b.rates, rate)
	b.freqs = append(b.freqs, freq)
}

// Finish encodes the accumulated rows into a Data and resets the builder
// for the next chunk. Every slice of the Data is allocated at its exact
// length: the append slack stays with the builder.
func (b *Builder) Finish() *Data {
	d := &Data{N: b.n, Cols: make([]Column, len(b.cols))}
	ParallelFor(len(b.cols), b.workers, func(c int) {
		hinted := b.sorted != nil && b.sorted[c]
		d.Cols[c] = b.cols[c].finish(b.n, hinted)
	})
	d.MetaEnds, d.Rates, d.Freqs = exact(b.metaEnds), exact(b.rates), exact(b.freqs)
	b.metaEnds, b.rates, b.freqs = b.metaEnds[:0], b.rates[:0], b.freqs[:0]
	b.n = 0
	return d
}

// exact copies xs into a slice with no spare capacity (nil when empty).
func exact[T any](xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	out := make([]T, len(xs))
	copy(out, xs)
	return out
}

// colAcc accumulates one column in the typed form its encoding will use.
type colAcc struct {
	// kind is the kind of the non-NULL values seen so far (KindNull until
	// the first one); it selects which payload slice is live.
	kind   types.Kind
	floats []float64 // KindFloat payloads, 0 at NULL rows
	ints   []int64   // KindInt and KindBool payloads
	codes  []uint16  // KindString codes into dict, first-appearance order (encode may store them 1-byte)
	dict   []string
	lookup map[string]uint16
	nulls  []uint64 // bitmap, grown to the last NULL row's word

	// mixed is set once two non-NULL kinds have met, or a string would be
	// dictionary entry MaxDict+1: from then on values holds every row
	// verbatim and the typed slices are unused.
	mixed  bool
	values []types.Value

	// runs counts maximal runs of equal values, which decides for EncRLE:
	// struct equality, so Int(1)/Float(1) start separate runs and NaN never
	// extends one (encode also splits −0 from +0: see sameRun).
	runs    int
	last    types.Value
	hasNull bool
	hasNaN  bool

	// gmap is gather's: gmap[gat[s]+k] is code k of source chunk s's
	// dictionary as a code in dict, noCode until met, and gset lists the
	// entries filled since dict was last emptied, which finish resets.
	gmap []uint32
	gat  []int32
	gset []int32
}

// noCode marks a gmap entry not filled yet.
const noCode = ^uint32(0)

// append adds v as row i of the column.
func (a *colAcc) append(v types.Value, i int) {
	if i == 0 || v != a.last {
		a.runs++
		a.last = v
	}
	if v.Kind == types.KindFloat && v.F != v.F {
		a.hasNaN = true
	}
	if a.mixed {
		a.values = append(a.values, v)
		return
	}
	if v.Kind == types.KindNull {
		a.setNull(i)
	} else if a.kind == types.KindNull {
		a.kind = v.Kind
		for j := 0; j < i; j++ { // the leading NULL rows' payload slots
			a.push(types.Value{}, j)
		}
	} else if v.Kind != a.kind {
		a.mix(v, i)
		return
	}
	a.push(v, i)
}

// push appends v, row i, to the live typed slice (a zero slot for NULL),
// or mixes the column when v's string overflows the dictionary.
func (a *colAcc) push(v types.Value, i int) {
	switch a.kind {
	case types.KindFloat:
		a.floats = append(a.floats, v.F)
	case types.KindInt, types.KindBool:
		a.ints = append(a.ints, v.I)
	case types.KindString:
		var code uint16
		if v.Kind != types.KindNull {
			var ok bool
			if code, ok = a.code(v.S); !ok {
				a.mix(v, i)
				return
			}
		}
		a.codes = append(a.codes, code)
	}
}

// mix switches the column to verbatim values: rows 0..i-1 as the typed
// slices hold them, then v as row i.
func (a *colAcc) mix(v types.Value, i int) {
	a.values = a.values[:0]
	for j := 0; j < i; j++ {
		a.values = append(a.values, a.value(j))
	}
	a.values = append(a.values, v)
	a.mixed = true
}

// setNull marks row i NULL.
func (a *colAcc) setNull(i int) {
	a.hasNull = true
	for len(a.nulls) <= i>>6 {
		a.nulls = append(a.nulls, 0)
	}
	a.nulls[i>>6] |= 1 << uint(i&63)
}

// code returns s's dictionary code, adding s at the end of the dictionary
// when it is new, and false when s is new and the dictionary full.
func (a *colAcc) code(s string) (uint16, bool) {
	code, ok := a.lookup[s]
	if !ok {
		if len(a.dict) == MaxDict {
			return 0, false
		}
		if a.lookup == nil {
			a.lookup = map[string]uint16{}
		}
		code = uint16(len(a.dict))
		a.lookup[s] = code
		a.dict = append(a.dict, s)
	}
	return code, true
}

// encKind is the kind of the non-NULL values of a typed encoding.
var encKind = [...]types.Kind{EncFloat: types.KindFloat, EncInt: types.KindInt, EncBool: types.KindBool, EncDict: types.KindString}

// layout lays gmap out over column c of the chunks srcs, every entry
// noCode. gset gets room for every entry, so gathers allocate nothing more.
func (a *colAcc) layout(srcs []*Data, c int) {
	a.gat = slices.Grow(a.gat[:0], len(srcs))
	n := 0
	for _, d := range srcs {
		a.gat = append(a.gat, int32(n))
		n += len(d.Cols[c].Dict)
	}
	a.gmap = slices.Grow(a.gmap[:0], n)[:n]
	for k := range a.gmap {
		a.gmap[k] = noCode
	}
	a.gset = slices.Grow(a.gset[:0], n)
}

// gather adds column c of row locs[k].Row of srcs[locs[k].Chunk] as row
// at+k, for each k, leaving the accumulator exactly as appending the values
// one by one would. A cell of a typed chunk column that is not NULL and is
// of the accumulator's kind is copied as its payload, its run counted by
// payload; any other cell — RLE, verbatim, NULL, of another kind, or a
// string the full dictionary cannot take — goes through append.
func (a *colAcc) gather(srcs []*Data, c int, locs []Loc, at int) {
	for _, l := range locs {
		col, r := &srcs[l.Chunk].Cols[c], int(l.Row)
		if a.mixed || col.Enc >= EncValue || a.kind != encKind[col.Enc] || col.Nulls != nil && isSet(col.Nulls, r) {
			a.append(col.Value(r), at)
			at++
			continue
		}
		switch col.Enc {
		case EncFloat:
			x := col.Floats[r]
			if v := types.Float(x); at == 0 || v != a.last {
				a.runs++
				a.last = v
			}
			if x != x {
				a.hasNaN = true
			}
			a.floats = append(a.floats, x)
		case EncInt, EncBool:
			v := types.Value{Kind: a.kind, I: col.IntAt(r)}
			if at == 0 || v != a.last {
				a.runs++
				a.last = v
			}
			a.ints = append(a.ints, v.I)
		default: // EncDict
			k := col.Code(r)
			e := int(a.gat[l.Chunk]) + k
			code := a.gmap[e]
			if code == noCode {
				acc, ok := a.code(col.Dict[k])
				if !ok {
					a.append(col.Value(r), at) // mixes the column
					at++
					continue
				}
				code = uint32(acc)
				a.gmap[e] = code
				a.gset = append(a.gset, int32(e))
			}
			// The previous row is NULL or a code of dict, whose strings are
			// equal exactly when their codes are.
			if at == 0 || a.isNull(at-1) || uint32(a.codes[at-1]) != code {
				a.runs++
				a.last = types.Str(col.Dict[k])
			}
			a.codes = append(a.codes, uint16(code))
		}
		at++
	}
}

// isNull reports whether row j of a typed accumulator is NULL.
func (a *colAcc) isNull(j int) bool { return j>>6 < len(a.nulls) && isSet(a.nulls, j) }

// value reconstructs row j from the typed accumulators.
func (a *colAcc) value(j int) types.Value {
	if a.mixed {
		return a.values[j]
	}
	if a.isNull(j) {
		return types.Null()
	}
	switch a.kind {
	case types.KindFloat:
		return types.Float(a.floats[j])
	case types.KindInt, types.KindBool:
		return types.Value{Kind: a.kind, I: a.ints[j]}
	case types.KindString:
		return types.Str(a.dict[a.codes[j]])
	}
	return types.Null()
}

// finish picks the tightest lossless encoding for the n accumulated rows
// and resets the accumulator, keeping its buffers.
func (a *colAcc) finish(n int, hinted bool) Column {
	col := a.encode(n, hinted)
	col.NaNFree = !a.hasNaN
	a.floats, a.ints, a.codes = a.floats[:0], a.ints[:0], a.codes[:0]
	a.dict, a.nulls, a.values = a.dict[:0], a.nulls[:0], a.values[:0]
	clear(a.lookup)
	for _, e := range a.gset {
		a.gmap[e] = noCode
	}
	a.gset = a.gset[:0]
	a.kind, a.mixed, a.runs, a.last, a.hasNull, a.hasNaN = types.KindNull, false, 0, types.Value{}, false, false
	return col
}

func (a *colAcc) encode(n int, hinted bool) Column {
	if n >= rleMinRows {
		threshold := rleMinMeanRun
		if hinted {
			threshold = rleHintedMinMeanRun
		}
		if a.runs*threshold <= n {
			col := Column{Enc: EncRLE, RunVals: make([]types.Value, 0, a.runs), RunEnds: make([]int32, 0, a.runs)}
			for j := 0; j < n; j++ {
				if v := a.value(j); j == 0 || !sameRun(v, col.RunVals[len(col.RunVals)-1]) {
					col.RunVals = append(col.RunVals, v)
					col.RunEnds = append(col.RunEnds, int32(j+1))
				} else {
					col.RunEnds[len(col.RunEnds)-1] = int32(j + 1)
				}
			}
			return col
		}
	}
	if a.mixed {
		return Column{Enc: EncValue, Values: exact(a.values)}
	}
	var nulls []uint64
	if a.hasNull {
		nulls = make([]uint64, (n+63)/64)
		copy(nulls, a.nulls)
	}
	switch a.kind {
	case types.KindInt, types.KindBool:
		col := Column{Enc: EncInt, Nulls: nulls}
		if a.kind == types.KindBool {
			col.Enc = EncBool
		}
		var ok bool
		if col.Base, col.Offs, ok = narrow(a.ints[:n], nulls); !ok {
			col.Ints = exact(a.ints)
		}
		return col
	case types.KindString:
		col := Column{Enc: EncDict, Dict: exact(a.dict), Nulls: nulls}
		if len(a.dict) <= MaxDict8 {
			col.Codes8 = make([]uint8, n)
			for i, c := range a.codes[:n] {
				col.Codes8[i] = uint8(c)
			}
		} else {
			col.Codes16 = exact(a.codes)
		}
		return col
	case types.KindFloat:
		return Column{Enc: EncFloat, Floats: exact(a.floats), Nulls: nulls}
	default:
		// Every value NULL: any typed encoding with a full null bitmap
		// reconstructs it; pick float.
		return Column{Enc: EncFloat, Floats: make([]float64, n), Nulls: nulls}
	}
}

// narrow returns xs as its smallest non-NULL value plus one 16-bit offset
// per row — a NULL row's offset 0 — when every non-NULL value lies within
// 65,535 of that smallest, and false otherwise. Bit i of nulls (nil: none)
// says whether row i is NULL; xs holds at least one non-NULL value.
func narrow(xs []int64, nulls []uint64) (base int64, offs []uint16, ok bool) {
	first := 0
	for nulls != nil && isSet(nulls, first) {
		first++
	}
	mn, mx := Bounds(xs, nulls, first, len(xs))
	// As uint64 the difference is exact: it cannot overflow as an int64 can.
	if uint64(mx)-uint64(mn) > 1<<16-1 {
		return 0, nil, false
	}
	offs = make([]uint16, len(xs))
	for i, x := range xs {
		offs[i] = uint16(uint64(x) - uint64(mn))
	}
	for i := 0; nulls != nil && i < len(xs); i++ {
		if isSet(nulls, i) {
			offs[i] = 0
		}
	}
	return mn, offs, true
}
