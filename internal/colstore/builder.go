package colstore

import (
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
// Append rows (with their sampling metadata), or AppendFrom a window of an
// already-encoded chunk, then Finish to freeze the payload. Values
// accumulate in their typed form from the first row on — a column only
// falls back to verbatim values when its non-null kinds actually mix — so
// a column degrades gracefully instead of ever rejecting a row, and Finish
// has nothing left to decode. The accumulators are kept across Finish
// calls: a builder that writes many chunks grows its buffers once.
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

// SetWorkers fans AppendColumns, AppendFrom and Finish out over up to n
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

// AppendFrom adds rows [lo, hi) of an encoded chunk of the same width,
// values and metadata exactly as they were appended to it, column at a
// time, in their typed form and without materialising a row: the builder
// ends up in the state appending the rows one by one leaves it in.
func (b *Builder) AppendFrom(src *Data, lo, hi int) {
	ParallelFor(len(b.cols), b.workers, func(c int) {
		b.cols[c].appendFrom(&src.Cols[c], lo, hi, b.n)
	})
	for i, run := lo, src.MetaRunOf(lo); i < hi; run++ {
		end := min(int(src.MetaEnds[run]), hi)
		b.appendMeta(src.Rates[run], src.Freqs[run], end-i)
		i = end
	}
	b.n += hi - lo
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

	// remap is appendFrom's scratch: a source dictionary code's code in
	// dict, noCode until the code is first met.
	remap []uint32
}

// noCode marks a remap entry not filled yet.
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

// appendFrom adds rows [lo, hi) of an encoded column as rows at, at+1, …
// of the accumulator, leaving it exactly as appending their values one by
// one would: an RLE column goes a run at a time, a verbatim one a value at
// a time, and a typed one — once the accumulator's kind is the column's —
// as slices, its dictionary codes translated through remap so each string
// is looked up once per call rather than once per row.
func (a *colAcc) appendFrom(col *Column, lo, hi, at int) {
	switch col.Enc {
	case EncRLE:
		for run := col.RunOf(lo); lo < hi; run++ {
			end := min(int(col.RunEnds[run]), hi)
			a.appendRun(col.RunVals[run], at, end-lo)
			at += end - lo
			lo = end
		}
		return
	case EncValue:
		a.appendValues(col, lo, hi, at)
		return
	}
	// Up to the first non-NULL row the accumulator's kind is open; after
	// it, a column of another kind mixes, and the rows go one by one.
	for ; lo < hi && !a.mixed && a.kind == types.KindNull; lo, at = lo+1, at+1 {
		a.append(col.Value(lo), at)
	}
	if lo == hi {
		return
	}
	if a.mixed || a.kind != encKind[col.Enc] {
		a.appendValues(col, lo, hi, at)
		return
	}
	first := at == 0 || col.Value(lo) != a.last // row lo starts a run
	nulls := col.Nulls
	if CountBits(nulls, lo, hi) == 0 {
		nulls = nil
	}
	null := func(j int) bool { return nulls != nil && nulls[j>>6]&(1<<uint(j&63)) != 0 }
	var breaks, lastStart int
	switch col.Enc {
	case EncFloat:
		a.floats = append(a.floats, col.Floats[lo:hi]...)
		breaks, lastStart = runBreaks(a.floats[at:], nulls, lo)
		for j, x := range a.floats[at:] {
			if x != x && !null(lo+j) {
				a.hasNaN = true
				break
			}
		}
	case EncInt, EncBool:
		if col.Narrow() {
			for _, off := range col.Offs[lo:hi] {
				a.ints = append(a.ints, col.Base+int64(off))
			}
		} else {
			a.ints = append(a.ints, col.Ints[lo:hi]...)
		}
		breaks, lastStart = runBreaks(a.ints[at:], nulls, lo)
	case EncDict:
		if !a.remapCodes(col, lo, hi, null) {
			// The dictionary is full: undo the codes and go row by row,
			// the strings met so far already in it in the same order.
			a.codes = a.codes[:at]
			a.appendValues(col, lo, hi, at)
			return
		}
		// Codes of one dictionary are equal exactly when their strings are.
		breaks, lastStart = runBreaks(a.codes[at:], nulls, lo)
	}
	if first {
		a.runs++
	}
	// A NULL row's payload slot holds the 0 that append gives it (see
	// Encoding) — once a narrow column's widened Base is cleared — and
	// the bitmap needs the row.
	if nulls != nil {
		for j := lo; j < hi; j++ {
			if null(j) {
				a.setNull(at + j - lo)
				if col.Narrow() {
					a.ints[at+j-lo] = 0
				}
			}
		}
	}
	// last is the value that opened the last run, as append keeps it.
	a.runs += breaks
	if breaks > 0 {
		a.last = a.value(at + lastStart)
	} else if first {
		a.last = a.value(at)
	}
}

// appendValues adds rows [lo, hi) of col as rows at, at+1, … one value
// at a time.
func (a *colAcc) appendValues(col *Column, lo, hi, at int) {
	for i := lo; i < hi; i++ {
		a.append(col.Value(i), at+i-lo)
	}
}

// remapCodes appends the codes of rows [lo, hi) of the dictionary column
// col, translated into the accumulator's dictionary through remap (a NULL
// row's slot 0), and reports false when a string overflows the dictionary.
func (a *colAcc) remapCodes(col *Column, lo, hi int, null func(int) bool) bool {
	a.remap = a.remap[:0]
	for range col.Dict {
		a.remap = append(a.remap, noCode)
	}
	if col.Codes8 != nil {
		return remapCodes(a, col.Codes8, col.Dict, lo, hi, null)
	}
	return remapCodes(a, col.Codes16, col.Dict, lo, hi, null)
}

// remapCodes is colAcc.remapCodes over codes of either width.
func remapCodes[C Code](a *colAcc, codes []C, dict []string, lo, hi int, null func(int) bool) bool {
	var ok bool
	for j := lo; j < hi; j++ {
		var code uint16
		if !null(j) {
			c := codes[j]
			if r := a.remap[c]; r != noCode {
				code = uint16(r)
			} else if code, ok = a.code(dict[c]); ok {
				a.remap[c] = uint32(code)
			} else {
				return false
			}
		}
		a.codes = append(a.codes, code)
	}
	return true
}

// encKind is the kind of the non-NULL values of a typed encoding.
var encKind = [...]types.Kind{EncFloat: types.KindFloat, EncInt: types.KindInt, EncBool: types.KindBool, EncDict: types.KindString}

// runBreaks counts the rows of xs after the first that start a new run of
// exactly-equal values — NULL next to non-NULL, or a payload that differs
// (a float NaN differs from everything) — and returns the last such row
// (0 when none). Bit lo+j of nulls (nil: none) says whether row j is NULL.
func runBreaks[T int64 | float64 | uint16](xs []T, nulls []uint64, lo int) (breaks, last int) {
	if nulls == nil {
		for j := 1; j < len(xs); j++ {
			if xs[j] != xs[j-1] {
				breaks, last = breaks+1, j
			}
		}
		return breaks, last
	}
	null := func(j int) bool { return nulls[(lo+j)>>6]&(1<<uint((lo+j)&63)) != 0 }
	for j := 1; j < len(xs); j++ {
		if n := null(j); n != null(j-1) || !n && xs[j] != xs[j-1] {
			breaks, last = breaks+1, j
		}
	}
	return breaks, last
}

// appendRun adds k copies of v as rows at, at+1, … — what k calls of
// append leave, with the string looked up once. v is one run of an RLE
// column, so it is not a NaN unless k is 1: the copies continue its run.
func (a *colAcc) appendRun(v types.Value, at, k int) {
	a.append(v, at)
	for i := at + 1; i < at+k; i++ {
		if a.mixed {
			a.values = append(a.values, v)
			continue
		}
		if v.Kind == types.KindNull {
			a.setNull(i)
		}
		if a.kind == types.KindString {
			a.codes = append(a.codes, a.codes[at]) // v's code, or a NULL's 0
		} else {
			a.push(v, i)
		}
	}
}

// value reconstructs row j from the typed accumulators.
func (a *colAcc) value(j int) types.Value {
	if a.mixed {
		return a.values[j]
	}
	if j>>6 < len(a.nulls) && a.nulls[j>>6]&(1<<uint(j&63)) != 0 {
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
