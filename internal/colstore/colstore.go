// Package colstore implements the columnar layout underlying BlinkDB-Go's
// vectorized scan path. A Data is one physical chunk — tens of thousands
// of rows, many of storage's priced blocks — decomposed into per-column
// typed slices — []float64, ints as []int64 or as a minimum plus []uint16
// offsets, dictionary-encoded strings as 1- or 2-byte codes, chosen per
// chunk — plus a null bitmap per column and
// the sampling metadata storage.RowMeta reports per row (rate, stratum
// frequency), stored as runs.
//
// The layout is the paper's §5 speed argument made physical: cached sample
// blocks are scanned at memory bandwidth because the executor's compiled
// predicates and aggregate kernels run over contiguous machine-typed
// slices instead of chasing one tagged value at a time.
//
// Encoding is LOSSLESS with respect to the appended rows: Value(col, i)
// reconstructs exactly the types.Value that was appended (kind included),
// so a scan over the typed slices produces bit-identical results to a
// naive evaluation of the materialised rows. A column whose non-null
// values mix kinds falls back to a verbatim []types.Value encoding — still
// contiguous, never wrong.
//
// # Encodings
//
// The builder picks, per column and per chunk, the tightest encoding that
// reconstructs every appended value exactly:
//
//   - EncRLE — run-length encoding: maximal runs of exactly-equal values
//     (NULL runs included; a run's value is stored verbatim, so mixed-kind
//     columns RLE-encode too) as (RunVals[r], RunEnds[r]) pairs. Chosen
//     when the column compresses well: by default when the mean run length
//     is ≥ rleMinMeanRun, or ≥ rleHintedMinMeanRun for columns hinted
//     sorted via Builder.HintSorted (stratification columns are sorted
//     within a stratum by construction, so sample builders hint them).
//     The executor's compare kernels emit one verdict per run and its
//     group resolution advances once per run instead of once per row.
//   - EncFloat / EncInt / EncBool — one machine-typed slice plus an
//     optional null bitmap, when every non-null value shares that kind.
//     An int or bool column has two forms: when its non-null values lie
//     within a 16-bit window (max − min ≤ 65,535, which a bool column
//     always does) it is its minimum, Base, plus one uint16 offset per
//     row; otherwise one int64 per row. The builder picks the form from
//     the data; there is no knob.
//   - EncDict — strings as codes into a first-appearance dictionary of at
//     most MaxDict entries: 1- or 2-byte codes, chosen per chunk — one
//     byte a row when the dictionary has at most MaxDict8 entries, two
//     otherwise. The builder picks the width from the data; there is no
//     knob.
//   - EncValue — verbatim []types.Value, the fallback for columns whose
//     non-null values mix kinds, or whose strings outnumber MaxDict (and
//     don't run-length compress).
//
// Losslessness contract: for every encoding, Value(i) returns the exact
// types.Value appended (kind, payload bits, NaN and ±0 included — run
// detection uses struct equality, never float comparison) and IsNull(i)
// matches the appended value's kind. Encoding choice can therefore never
// change a query result, only its speed; the sorted-column hints are
// purely physical.
package colstore

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"blinkdb/internal/types"
)

// Encoding says how one column's values are physically stored.
type Encoding uint8

const (
	// EncFloat stores KindFloat values in Floats (0 at null positions).
	EncFloat Encoding = iota
	// EncInt stores KindInt values in Ints, or as Base + Offs (see Column).
	EncInt
	// EncBool stores KindBool payloads (0/1) as EncInt stores ints.
	EncBool
	// EncDict stores KindString values as codes into Dict (first-appearance
	// order, so encoding is deterministic for a given row sequence; at most
	// MaxDict entries): 1- or 2-byte codes, chosen per chunk — Codes8 when
	// Dict has at most MaxDict8 entries, Codes16 otherwise.
	EncDict
	// EncValue stores values verbatim — the fallback for columns whose
	// non-null values mix kinds. Nulls is not used; Values holds them.
	EncValue
	// EncRLE stores maximal runs of exactly-equal values: RunVals[r] is
	// run r's value (verbatim, NULL included — Nulls is not used) and
	// RunEnds[r] its exclusive end row. Runs group by struct equality, so
	// the encoding is lossless for every kind, NaN payloads included.
	EncRLE
)

// MaxDict is the most entries a dictionary can hold: codes are at most
// 16 bits. MaxDict8 is the most a dictionary of 1-byte codes holds; a
// chunk column whose dictionary is no larger stores 1-byte codes.
const (
	MaxDict  = 1 << 16
	MaxDict8 = 1 << 8
)

// Code is the element type of a dictionary column's codes: uint8 for a
// dictionary of at most MaxDict8 entries, uint16 for a larger one.
type Code interface{ uint8 | uint16 }

// String renders the encoding name.
func (e Encoding) String() string {
	switch e {
	case EncFloat:
		return "float"
	case EncInt:
		return "int"
	case EncBool:
		return "bool"
	case EncDict:
		return "dict"
	case EncRLE:
		return "rle"
	default:
		return "value"
	}
}

// Column is one column of a chunk in columnar form. Exactly the payload
// fields selected by Enc are meaningful. Nulls is a little-endian bitmap
// (bit i set ⇒ row i is NULL); nil means the column has no nulls. EncValue
// columns keep nulls inline in Values and leave Nulls nil.
//
// An EncDict column's codes are 1 or 2 bytes, chosen per chunk: Codes8
// when its Dict has at most MaxDict8 entries, Codes16 otherwise; exactly
// one of the two is non-nil, unless the column has no rows. Codes are at
// most 16 bits wide, so Dict holds at most MaxDict entries: a storage
// chunk holds at most that many rows, so its dictionaries always fit. A
// chunk that would need one more distinct string — only one larger than a
// storage chunk, built by hand or from a priced block over 65,536 rows —
// stores that column as EncValue instead, the fallback a column of mixed
// kinds takes.
//
// An EncInt or EncBool column is in one of two forms. Narrow: when every
// non-NULL payload lies in [m, m+65535], m the smallest, Base is m and
// Offs[i] is row i's payload minus Base — one uint16 a row where the wide
// form spends an int64. Wide: otherwise, Ints[i] is row i's payload. The
// builder picks the form per chunk from the data (Narrow reports which);
// Ints is nil in the narrow form and Offs in the wide one. A NULL row's
// slot holds 0 in the wide form and offset 0 in the narrow form.
type Column struct {
	Enc     Encoding
	Floats  []float64
	Ints    []int64
	Base    int64
	Offs    []uint16
	Codes8  []uint8
	Codes16 []uint16
	Dict    []string
	Values  []types.Value
	Nulls   []uint64

	// RunVals/RunEnds are the EncRLE payload: RunVals[r] is the value of
	// run r, RunEnds[r] its exclusive cumulative end row (ascending;
	// RunEnds[len-1] is the column length). Nulls is unused — NULL runs
	// store types.Null() in RunVals.
	RunVals []types.Value
	RunEnds []int32

	// NaNFree is true when the builder PROVED the column holds no float
	// NaN (trivially true for int/bool/dict columns). The executor's
	// all-true zone shortcut relies on it: NaN compares unordered, so a
	// zone map cannot vouch for a block whose chunk might contain one. The zero
	// value (false) is the conservative side, so hand-assembled columns
	// stay correct, just ineligible for the shortcut.
	NaNFree bool
}

// Len returns the column's row count as implied by its payload slice.
func (c *Column) Len() int {
	switch c.Enc {
	case EncFloat:
		return len(c.Floats)
	case EncInt, EncBool:
		if c.Narrow() {
			return len(c.Offs)
		}
		return len(c.Ints)
	case EncDict:
		return len(c.Codes8) + len(c.Codes16)
	case EncRLE:
		if len(c.RunEnds) == 0 {
			return 0
		}
		return int(c.RunEnds[len(c.RunEnds)-1])
	default:
		return len(c.Values)
	}
}

// Narrow reports whether an EncInt or EncBool column is stored as Base
// plus 16-bit offsets rather than as int64s.
func (c *Column) Narrow() bool { return c.Offs != nil }

// IntAt returns the payload of row i of an EncInt or EncBool column, in
// either form. A NULL row's payload is 0 in the wide form and Base in the
// narrow one: callers test IsNull first.
func (c *Column) IntAt(i int) int64 {
	if c.Offs != nil {
		return c.Base + int64(c.Offs[i])
	}
	return c.Ints[i]
}

// Code returns row i's code of an EncDict column, in either width.
func (c *Column) Code(i int) int {
	if c.Codes8 != nil {
		return int(c.Codes8[i])
	}
	return int(c.Codes16[i])
}

// RunOf returns the index of the run containing row i (EncRLE only).
func (c *Column) RunOf(i int) int {
	return sort.Search(len(c.RunEnds), func(r int) bool { return c.RunEnds[r] > int32(i) })
}

// IsNull reports whether row i of the column is NULL.
func (c *Column) IsNull(i int) bool {
	switch c.Enc {
	case EncValue:
		return c.Values[i].IsNull()
	case EncRLE:
		return c.RunVals[c.RunOf(i)].IsNull()
	}
	return c.Nulls != nil && c.Nulls[i>>6]&(1<<uint(i&63)) != 0
}

// Value reconstructs row i's value exactly as it was appended.
func (c *Column) Value(i int) types.Value {
	switch c.Enc {
	case EncValue:
		return c.Values[i]
	case EncRLE:
		return c.RunVals[c.RunOf(i)]
	default:
		if c.IsNull(i) {
			return types.Null()
		}
	}
	switch c.Enc {
	case EncFloat:
		return types.Float(c.Floats[i])
	case EncInt:
		return types.Int(c.IntAt(i))
	case EncBool:
		return types.Value{Kind: types.KindBool, I: c.IntAt(i)}
	default: // EncDict
		return types.Str(c.Dict[c.Code(i)])
	}
}

// Data is one physical chunk: every column of a run of rows plus their
// sampling metadata, stored as runs — rows [MetaEnds[r-1], MetaEnds[r])
// share the rate Rates[r] and the stratum frequency Freqs[r]. A base table
// or uniform sample is a single run; a stratified delta has about one per
// stratum. A span of rows inside one run has one derived sampling rate,
// which is what lets the executor hoist rate math out of its inner loop.
type Data struct {
	// N is the row count.
	N int
	// Cols holds one entry per schema column.
	Cols []Column
	// MetaEnds[r] is the exclusive end row of metadata run r (ascending;
	// the last entry is N). Empty only when N is 0.
	MetaEnds []int32
	// Rates[r] is the effective sampling rate of every row in run r.
	Rates []float64
	// Freqs[r] is the stratum frequency of every row in run r.
	Freqs []int64
}

// MetaRunOf returns the index of the metadata run containing row i.
func (d *Data) MetaRunOf(i int) int {
	if len(d.MetaEnds) <= 1 {
		return 0
	}
	return sort.Search(len(d.MetaEnds), func(r int) bool { return d.MetaEnds[r] > int32(i) })
}

// Row materialises row i as a fresh types.Row (safe to retain).
func (d *Data) Row(i int) types.Row {
	r := make(types.Row, len(d.Cols))
	for c := range d.Cols {
		r[c] = d.Cols[c].Value(i)
	}
	return r
}

// Strata numbers the distinct projections of rows onto a list of columns
// with dense ids 0, 1, 2, … in order of first appearance over the rows it
// is shown. Two rows share an id exactly when their RowKeys are equal:
// values are told apart as Value.Key tells them, so Int(1) and Bool(true)
// share an id, every NaN shares one, and −0 is not +0. The ids are exact —
// a multi-column id numbers the pair (id over the leading columns, id of
// the next column), with no hash or packing that could collide — and a
// dictionary column looks each entry up once per IDs call instead of once
// per row, as an RLE column does each run. Over no columns every row is
// stratum 0, keyed "".
//
// Its users: optimizer.frequencies (the §3.2 profile), the column
// histograms of maintenance.TakeSnapshot, sample.Build and Family.Validate.
type Strata struct {
	cols []valueIDs
	idx  []int
	rows bool // a row has been shown (the no-column case's Len)
	// pairs[k-1] numbers the (id over columns 0..k-1, id of column k)
	// pairs met so far, and parts[k-1][id] is the pair id stands for.
	pairs []map[uint64]uint32
	parts [][]uint64
	// Scratch: one column's ids, and Count's ids.
	colIDs, ids []uint32
}

// NewStrata creates a numbering of projections onto the column indices idx.
func NewStrata(idx []int) *Strata {
	k := len(idx)
	return &Strata{
		cols:  make([]valueIDs, k),
		idx:   append([]int(nil), idx...),
		pairs: make([]map[uint64]uint32, max(k-1, 0)),
		parts: make([][]uint64, max(k-1, 0)),
	}
}

// Len returns how many distinct projections have been numbered.
func (s *Strata) Len() int {
	switch k := len(s.idx); {
	case k > 1:
		return len(s.parts[k-2])
	case k == 1:
		return len(s.cols[0].vals)
	case s.rows:
		return 1
	}
	return 0
}

// IDs appends the ids of rows [lo, hi) of d to out and returns it.
func (s *Strata) IDs(d *Data, lo, hi int, out []uint32) []uint32 {
	start := len(out)
	out = slices.Grow(out, hi-lo)[:start+hi-lo]
	ids := out[start:]
	if len(s.idx) == 0 {
		clear(ids)
		s.rows = s.rows || hi > lo
		return out
	}
	s.cols[0].column(&d.Cols[s.idx[0]], lo, hi, ids)
	for k := 1; k < len(s.idx); k++ {
		s.colIDs = slices.Grow(s.colIDs[:0], hi-lo)[:hi-lo]
		s.cols[k].column(&d.Cols[s.idx[k]], lo, hi, s.colIDs)
		pairs, parts := s.pairs[k-1], s.parts[k-1]
		if pairs == nil {
			pairs = map[uint64]uint32{}
			s.pairs[k-1] = pairs
		}
		for i, c := range s.colIDs {
			pair := uint64(ids[i])<<32 | uint64(c)
			id, ok := pairs[pair]
			if !ok {
				id = uint32(len(parts))
				pairs[pair] = id
				parts = append(parts, pair)
			}
			ids[i] = id
		}
		s.parts[k-1] = parts
	}
	return out
}

// Count adds one to counts[id] for each row of [lo, hi) of d, counts
// grown to Len, and returns counts.
func (s *Strata) Count(d *Data, lo, hi int, counts []int64) []int64 {
	s.ids = s.IDs(d, lo, hi, s.ids[:0])
	if n := s.Len(); n > len(counts) {
		counts = append(counts, make([]int64, n-len(counts))...)
	}
	for _, id := range s.ids {
		counts[id]++
	}
	return counts
}

// Key returns the RowKey of the rows numbered id.
func (s *Strata) Key(id uint32) string {
	if len(s.idx) == 0 {
		return ""
	}
	return string(s.appendKey(nil, len(s.idx)-1, id))
}

// appendKey appends the key of id over columns 0..k.
func (s *Strata) appendKey(buf []byte, k int, id uint32) []byte {
	if k == 0 {
		return append(buf, s.cols[0].vals[id].Key()...)
	}
	pair := s.parts[k-1][id]
	buf = append(s.appendKey(buf, k-1, uint32(pair>>32)), '\x1f')
	return append(buf, s.cols[k].vals[uint32(pair)].Key()...)
}

// valueIDs numbers one column's distinct values by Value.Key equality.
type valueIDs struct {
	ints   map[int64]uint32  // KindInt and KindBool, whose keys are one space
	floats map[uint64]uint32 // by bits, every NaN under nanBits
	strs   map[string]uint32
	null   uint32        // NULL's id + 1; 0 until a NULL is met
	vals   []types.Value // vals[id] is the first value numbered id
	remap  []uint32      // column's scratch: dictionary code → id, noCode until met
}

var nanBits = math.Float64bits(math.NaN())

// sameRun reports whether v continues an RLE run of u: struct equality,
// with a float zero's sign told apart (−0 == +0, but the two key apart).
func sameRun(u, v types.Value) bool { return u == v && math.Signbit(u.F) == math.Signbit(v.F) }

// id returns v's id, numbering it when it is new.
func (n *valueIDs) id(v types.Value) uint32 {
	switch v.Kind {
	case types.KindNull:
		if n.null == 0 {
			n.vals = append(n.vals, v)
			n.null = uint32(len(n.vals))
		}
		return n.null - 1
	case types.KindInt, types.KindBool:
		return numberOf(&n.ints, v.I, n, v)
	case types.KindFloat:
		bits := math.Float64bits(v.F)
		if v.F != v.F {
			bits = nanBits
		}
		return numberOf(&n.floats, bits, n, v)
	default:
		return numberOf(&n.strs, v.S, n, v)
	}
}

func numberOf[K comparable](m *map[K]uint32, k K, n *valueIDs, v types.Value) uint32 {
	id, ok := (*m)[k]
	if !ok {
		if *m == nil {
			*m = map[K]uint32{}
		}
		id = uint32(len(n.vals))
		(*m)[k] = id
		n.vals = append(n.vals, v)
	}
	return id
}

// column writes the ids of rows [lo, hi) of col to out[:hi-lo].
func (n *valueIDs) column(col *Column, lo, hi int, out []uint32) {
	switch col.Enc {
	case EncRLE:
		for run, i := col.RunOf(lo), 0; lo < hi; run++ {
			end := min(int(col.RunEnds[run]), hi)
			id := n.id(col.RunVals[run])
			for ; lo < end; lo, i = lo+1, i+1 {
				out[i] = id
			}
		}
		return
	case EncValue:
		for i, v := range col.Values[lo:hi] {
			out[i] = n.id(v)
		}
		return
	case EncDict:
		n.remap = n.remap[:0]
		for range col.Dict {
			n.remap = append(n.remap, noCode)
		}
	}
	for i := range out[:hi-lo] {
		j := lo + i
		if col.Nulls != nil && col.Nulls[j>>6]&(1<<uint(j&63)) != 0 {
			out[i] = n.id(types.Null())
			continue
		}
		switch col.Enc {
		case EncDict:
			c := col.Code(j)
			id := n.remap[c]
			if id == noCode {
				id = n.id(types.Str(col.Dict[c]))
				n.remap[c] = id
			}
			out[i] = id
		case EncFloat:
			out[i] = n.id(types.Float(col.Floats[j]))
		case EncInt:
			out[i] = n.id(types.Int(col.IntAt(j)))
		default: // EncBool
			out[i] = n.id(types.Value{Kind: types.KindBool, I: col.IntAt(j)})
		}
	}
}

// Bounds returns the smallest and largest of xs[first:hi], skipping the
// rows nulls marks (nil: none); row first is not NULL. A float NaN after
// row first compares neither way, so it moves neither end.
func Bounds[T int64 | uint16 | float64](xs []T, nulls []uint64, first, hi int) (mn, mx T) {
	mn, mx = xs[first], xs[first]
	for i := first + 1; i < hi; i++ {
		if nulls != nil && isSet(nulls, i) {
			continue
		}
		if x := xs[i]; x < mn {
			mn = x
		} else if x > mx {
			mx = x
		}
	}
	return mn, mx
}

// isSet reports whether bit i of the bitmap bm is set.
func isSet(bm []uint64, i int) bool { return bm[i>>6]&(1<<uint(i&63)) != 0 }

// CountBits counts the set bits of positions [lo, hi) in a bitmap (0 for a
// nil one).
func CountBits(bm []uint64, lo, hi int) int {
	if bm == nil || lo >= hi {
		return 0
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if loW == hiW {
		return bits.OnesCount64(bm[loW] & loMask & hiMask)
	}
	n := bits.OnesCount64(bm[loW]&loMask) + bits.OnesCount64(bm[hiW]&hiMask)
	for w := loW + 1; w < hiW; w++ {
		n += bits.OnesCount64(bm[w])
	}
	return n
}
