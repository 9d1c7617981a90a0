package colstore

import (
	"math"

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

// Builder accumulates one block's rows and encodes them into a Data. It
// mirrors storage.Builder's per-block accumulation: Append rows (with
// their sampling metadata), then Finish to freeze the columnar payload.
// Encoding decisions are made at Finish time from the values actually
// seen, so a column degrades gracefully (typed slice → verbatim values)
// instead of ever rejecting a row.
type Builder struct {
	cols  [][]types.Value
	rates []float64
	freqs []int64

	// noRLE disables run-length encoding (plain typed encodings only);
	// sorted marks columns hinted as sorted/low-cardinality.
	noRLE  bool
	sorted []bool
}

// NewBuilder creates a builder for blocks of numCols columns.
func NewBuilder(numCols int) *Builder {
	return &Builder{cols: make([][]types.Value, numCols)}
}

// DisableRLE makes the builder skip run-length encoding and emit only the
// plain typed encodings — the pre-RLE physical design. Purely physical:
// results are bit-identical either way (the equivalence tests' "plain
// columnar" leg is built with this).
func (b *Builder) DisableRLE() { b.noRLE = true }

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

// Len returns the number of rows appended so far.
func (b *Builder) Len() int { return len(b.rates) }

// Append adds one row. len(r) must equal the builder's column count;
// short rows are padded with NULLs.
func (b *Builder) Append(r types.Row, rate float64, freq int64) {
	for c := range b.cols {
		v := types.Null()
		if c < len(r) {
			v = r[c]
		}
		b.cols[c] = append(b.cols[c], v)
	}
	b.rates = append(b.rates, rate)
	b.freqs = append(b.freqs, freq)
}

// Finish encodes the accumulated rows into a Data and resets the builder
// for the next block.
func (b *Builder) Finish() *Data {
	n := len(b.rates)
	d := &Data{N: n, Cols: make([]Column, len(b.cols))}
	for c := range b.cols {
		hinted := b.sorted != nil && b.sorted[c]
		d.Cols[c] = encodeColumn(b.cols[c], !b.noRLE, hinted)
		b.cols[c] = nil
	}
	d.Rates, d.UniformRate = compressFloats(b.rates)
	d.Freqs, d.UniformFreq = compressInts(b.freqs)
	b.rates, b.freqs = nil, nil
	return d
}

// FromRows encodes a complete block in one call.
func FromRows(numCols int, rows []types.Row, rates []float64, freqs []int64) *Data {
	b := NewBuilder(numCols)
	for i, r := range rows {
		b.Append(r, rates[i], freqs[i])
	}
	return b.Finish()
}

// compressFloats drops the array when every element is equal, returning
// the shared value.
func compressFloats(xs []float64) ([]float64, float64) {
	if len(xs) == 0 {
		return nil, 1
	}
	for _, x := range xs[1:] {
		if x != xs[0] {
			return xs, 0
		}
	}
	return nil, xs[0]
}

func compressInts(xs []int64) ([]int64, int64) {
	if len(xs) == 0 {
		return nil, 0
	}
	for _, x := range xs[1:] {
		if x != xs[0] {
			return xs, 0
		}
	}
	return nil, xs[0]
}

// countRuns counts maximal runs of exactly-equal values. Equality is
// struct equality — kind AND payload bits — so Int(1)/Float(1) start
// separate runs and NaN never extends one (NaN != NaN), which is what
// keeps the encoding lossless.
func countRuns(vals []types.Value) int {
	if len(vals) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			runs++
		}
	}
	return runs
}

// noNaN reports whether no value in vals is a float NaN.
func noNaN(vals []types.Value) bool {
	for _, v := range vals {
		if v.Kind == types.KindFloat && math.IsNaN(v.F) {
			return false
		}
	}
	return true
}

// encodeColumn picks the tightest lossless encoding for one column.
func encodeColumn(vals []types.Value, allowRLE, hinted bool) Column {
	if allowRLE && len(vals) >= rleMinRows {
		threshold := rleMinMeanRun
		if hinted {
			threshold = rleHintedMinMeanRun
		}
		if runs := countRuns(vals); runs*threshold <= len(vals) {
			col := Column{Enc: EncRLE, NaNFree: noNaN(vals)}
			col.RunVals = make([]types.Value, 0, runs)
			col.RunEnds = make([]int32, 0, runs)
			for i, v := range vals {
				if i == 0 || v != vals[i-1] {
					col.RunVals = append(col.RunVals, v)
					col.RunEnds = append(col.RunEnds, int32(i+1))
				} else {
					col.RunEnds[len(col.RunEnds)-1] = int32(i + 1)
				}
			}
			return col
		}
	}

	kind := types.KindNull
	mixed := false
	hasNull := false
	for _, v := range vals {
		if v.Kind == types.KindNull {
			hasNull = true
			continue
		}
		if kind == types.KindNull {
			kind = v.Kind
		} else if v.Kind != kind {
			mixed = true
			break
		}
	}
	if mixed {
		return Column{Enc: EncValue, Values: vals, NaNFree: noNaN(vals)}
	}

	var nulls []uint64
	if hasNull {
		nulls = make([]uint64, (len(vals)+63)/64)
		for i, v := range vals {
			if v.Kind == types.KindNull {
				nulls[i>>6] |= 1 << uint(i&63)
			}
		}
	}
	switch kind {
	case types.KindFloat:
		xs := make([]float64, len(vals))
		nanFree := true
		for i, v := range vals {
			xs[i] = v.F
			if math.IsNaN(v.F) {
				nanFree = false
			}
		}
		return Column{Enc: EncFloat, Floats: xs, Nulls: nulls, NaNFree: nanFree}
	case types.KindInt:
		xs := make([]int64, len(vals))
		for i, v := range vals {
			xs[i] = v.I
		}
		return Column{Enc: EncInt, Ints: xs, Nulls: nulls, NaNFree: true}
	case types.KindBool:
		xs := make([]int64, len(vals))
		for i, v := range vals {
			xs[i] = v.I
		}
		return Column{Enc: EncBool, Ints: xs, Nulls: nulls, NaNFree: true}
	case types.KindString:
		codes := make([]uint32, len(vals))
		var dict []string
		lookup := map[string]uint32{}
		for i, v := range vals {
			if v.Kind == types.KindNull {
				continue
			}
			code, ok := lookup[v.S]
			if !ok {
				code = uint32(len(dict))
				lookup[v.S] = code
				dict = append(dict, v.S)
			}
			codes[i] = code
		}
		return Column{Enc: EncDict, Codes: codes, Dict: dict, Nulls: nulls, NaNFree: true}
	default:
		// Every value NULL: any typed encoding with a full null bitmap
		// reconstructs it; pick float.
		return Column{Enc: EncFloat, Floats: make([]float64, len(vals)), Nulls: nulls, NaNFree: true}
	}
}
