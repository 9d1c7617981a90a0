package exec

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"blinkdb/internal/colstore"
	"blinkdb/internal/cpu"
	"blinkdb/internal/stats"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// This file implements the vectorized scan over physical chunks
// (internal/colstore). Its unit of work is the span — a run of rows of one
// chunk, as many adjacent blocks as share a zone verdict and a sampling-
// metadata run (see span): predicates are evaluated column-at-a-time into
// a selection bitmap, then grouping and aggregation run over the selected
// rows using contiguous typed slices — no types.Row is materialised and
// no per-row interface dispatch happens. Row indices are chunk row
// numbers throughout. A join scan is this scan over a wider chunk (see
// joinRuntime): each fact chunk gains its rows' dimension columns, gathered
// by key lookup, and a match column, and the plan's predicate AND match = 1
// selects.
//
// BIT-IDENTITY CONTRACT: for any span, the scan must produce exactly the
// state a naive row-at-a-time evaluation would (the reference oracle in
// oracle_test.go): the same rows selected and the same groups created. What
// is pinned beyond that is what stats.Acc keeps:
//
//   - Keys. A row's weight class is keyed by its rate's weight for a table,
//     and for a sample by its stratum frequency raised to the cap of the
//     delta that holds it (stats.FreqKey); weights meet sums only at
//     finalize, once per class, at the cap the answer is read at.
//   - Lanes. Row r of a chunk adds x and float64(x*x) to lane r mod 4 of its
//     (group, aggregate, class), rows of one lane in row order; lanes merge
//     lane by lane and combine as (l0+l1)+(l2+l3) at finalize. A row's lane
//     is its row number's, whichever span, fold call or kernel adds it.
//   - Ranges. Partials are the input's scan ranges (Input.ranges), cut at
//     every sample delta, folded in range order; so a Chain that adds a
//     view's deltas one at a time folds what a scan of the view folds.
//
// Per partial, WeightedMatched is an exact key → count tally. The kernels
// below therefore reorder work freely across groups, aggregates, classes
// and lanes — one pass per aggregate, one slot or one masked pass per
// dictionary code, a span cut wherever its key changes — and never within
// a lane of a class.
//
// Selection is outside what the contract has to pin: bitmaps and row-index
// lists are exact integers, so any kernel that sets the same bits may stand
// in for another. On amd64 three selection steps have AVX2 kernels
// (select_amd64.s) over whole 64-row words, the Go loops finishing the
// tail: the int interval test behind every int order or equality leaf and
// every intervalPred over a wide int column (intsInRange); the 16-bit
// range test, which takes the same interval clamped onto a narrow
// column's offsets and a dictionary column's = and <> against a string as
// the range [c, c] of codes (u16InRange, and its sibling over 1-byte
// codes, u8InRange); and bitmap → row indices (rowsOf). They run when
// cpu.AVX2 is set, once at init from CPUID and XGETBV — no option, flag
// or build tag chooses. The Go kernels are the
// path on every other platform and CPU, and the reference the tests hold
// the assembly to, bit for bit. The folds' own AVX2 kernels (stats'
// masked and per-code folds, and the per-code count) follow the same rule;
// which form a span folds in is a matter of density (see scanSpan), never
// of the bits it produces.

// colScratch holds buffers reused across the spans one worker scans, so
// steady-state scanning allocates nothing.
type colScratch struct {
	sel     []uint64   // selection bitmap
	free    [][]uint64 // temp bitmaps for AND/OR subtrees
	idxs    []int32    // selected row indices, ascending (rowsOf keeps 8 spare)
	xs      []float64  // aggregate inputs gathered past NULLs
	keybuf  []types.Value
	touched []*groupState // groups staged during the current fold

	// passTabs holds, per (dictionary column, comparison leaf), the leaf's
	// verdict for every dictionary code. A dictionary is chunk-wide, so the
	// string comparisons are paid once per chunk, not once per span.
	passTabs map[passKey]dictVerdicts
	// passFree holds the verdict slices of the tables putScratch dropped,
	// for the next scan's tables to reuse.
	passFree [][]bool

	// codeGS caches the group of every dictionary code of codeCol, the
	// GROUP BY column of the chunk being scanned into codePT. Groups live
	// as long as their partial, so the cache holds across that chunk's
	// spans and is cleared when either changes.
	codeGS  []*groupState
	codeCol *colstore.Column
	codePT  *Partial

	// The per-code fold's tables, indexed by dictionary code like codeGS:
	// how many of the rows being folded carry the code (all zero between
	// folds), the codes that do, and the moments each adds to for the
	// aggregate in hand.
	codeCnt   []int32
	codeSeen  []uint16
	codeSlots []*stats.Moments

	// kept holds the rows of a gather's values past NULLs, beside xs.
	kept []int32

	// wide holds a narrow int column's payloads as the folds read them,
	// indexed by row (see ints).
	wide []int64

	// rowPool recycles the per-group staging buffers across spans and
	// partials (group states die with their partial; their buffers
	// shouldn't).
	rowPool [][]int32

	// wideHdrs holds the widened form of every fact chunk a join scan has
	// met (see widened), one per join and chunk, so that the caches above,
	// which key on column addresses, see one column per chunk. The headers
	// share the gathered payloads — joinVals, one per dimension column, and
	// joinMatch — indexed by chunk row: each span rewrites the rows it
	// reads.
	wideHdrs  map[wideKey]*wideChunk
	joinVals  [][]types.Value
	joinMatch []uint16
}

// scratchPool recycles scan scratch across scans: a span can be a whole
// scan range of one chunk, so the buffers are sized in tens of kilobytes
// and a scan that allocated its own would spend more on the collector than
// on its kernels.
var scratchPool = sync.Pool{New: func() any { return &colScratch{} }}

func getScratch() *colScratch { return scratchPool.Get().(*colScratch) }

// putScratch returns sc to the pool, dropping what it knows about the
// chunks and partials of the scan it served.
func putScratch(sc *colScratch) {
	for _, v := range sc.passTabs {
		sc.passFree = append(sc.passFree, v.pass)
	}
	clear(sc.passTabs)
	clear(sc.codeGS[:cap(sc.codeGS)])
	clear(sc.codeSlots[:cap(sc.codeSlots)])
	sc.codeCol, sc.codePT = nil, nil
	clear(sc.wideHdrs)
	clear(sc.keybuf[:cap(sc.keybuf)])
	scratchPool.Put(sc)
}

// passKey names one memoized dictionary verdict table.
type passKey struct {
	col  *colstore.Column
	leaf *types.CmpPred
}

// dictVerdicts is one comparison leaf's verdict for every code of a chunk
// dictionary, and the code holding the leaf's constant: eq is that code
// when exactly one does, noCode when none does and dupCodes when several do
// (blockfile loads a dictionary without checking that its strings are
// distinct). With one such code, = passes exactly on it and <> on every
// other; the table is correct whatever the dictionary holds.
type dictVerdicts struct {
	pass []bool
	eq   int
}

const (
	noCode   = -1
	dupCodes = -2
)

func (sc *colScratch) getBatchRows() []int32 {
	if k := len(sc.rowPool); k > 0 {
		rows := sc.rowPool[k-1]
		sc.rowPool = sc.rowPool[:k-1]
		return rows
	}
	return make([]int32, 0, 64)
}

func (sc *colScratch) putBatchRows(rows []int32) { sc.rowPool = append(sc.rowPool, rows[:0]) }

func (sc *colScratch) bitmap(n int) []uint64 {
	words := (n + 63) / 64
	if cap(sc.sel) < words {
		sc.sel = make([]uint64, words)
	}
	return sc.sel[:words]
}

func (sc *colScratch) acquireTemp(words int) []uint64 {
	if k := len(sc.free); k > 0 {
		t := sc.free[k-1]
		sc.free = sc.free[:k-1]
		if cap(t) >= words {
			return t[:words]
		}
	}
	return make([]uint64, words)
}

func (sc *colScratch) releaseTemp(t []uint64) { sc.free = append(sc.free, t) }

func (sc *colScratch) keyBuf(w int) []types.Value {
	if cap(sc.keybuf) < w {
		sc.keybuf = make([]types.Value, w)
	}
	return sc.keybuf[:w]
}

// ---- bitmap primitives ----

func bitmapFill(dst []uint64, n int, b bool) {
	if !b {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	maskTail(dst, n)
}

// maskTail clears bits ≥ n in the last word.
func maskTail(dst []uint64, n int) {
	if rem := n & 63; rem != 0 && len(dst) > 0 {
		dst[len(dst)-1] &= (1 << uint(rem)) - 1
	}
}

func bitmapAnd(dst, src []uint64) {
	for i := range dst {
		dst[i] &= src[i]
	}
}

func bitmapOr(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

func bitmapNot(dst []uint64, n int) {
	for i := range dst {
		dst[i] = ^dst[i]
	}
	maskTail(dst, n)
}

// bitmapSetRange sets bits [lo, hi) word-at-a-time.
func bitmapSetRange(dst []uint64, lo, hi int) {
	if lo >= hi {
		return
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if loW == hiW {
		dst[loW] |= loMask & hiMask
		return
	}
	dst[loW] |= loMask
	for w := loW + 1; w < hiW; w++ {
		dst[w] = ^uint64(0)
	}
	dst[hiW] |= hiMask
}

// bitmapCount returns how many bits are set.
func bitmapCount(bm []uint64) int {
	n := 0
	for _, w := range bm {
		n += bits.OnesCount64(w)
	}
	return n
}

// bitmapCountRange returns how many of bits [lo, hi) are set.
func bitmapCountRange(bm []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if loW == hiW {
		return bits.OnesCount64(bm[loW] & loMask & hiMask)
	}
	return bits.OnesCount64(bm[loW]&loMask) + bitmapCount(bm[loW+1:hiW]) + bits.OnesCount64(bm[hiW]&hiMask)
}

// patchNulls forces the selection outcome of every NULL row to b. nulls is
// the chunk's bitmap from dst's first word on (see evalPred on the tail).
func patchNulls(dst, nulls []uint64, b bool) {
	if nulls == nil {
		return
	}
	if b {
		bitmapOr(dst, nulls)
		return
	}
	for i := range dst {
		dst[i] &^= nulls[i]
	}
}

// cmpPass mirrors types.signOK: whether a comparison outcome c passes an
// operator decomposed into (lt, eq, gt) acceptance flags.
func cmpPass(c int, lt, eq, gt bool) bool {
	if c < 0 {
		return lt
	}
	if c > 0 {
		return gt
	}
	return eq
}

func opFlags(op types.CmpOp) (lt, eq, gt bool) {
	switch op {
	case types.CmpEq:
		eq = true
	case types.CmpNe:
		lt, gt = true, true
	case types.CmpLt:
		lt = true
	case types.CmpLe:
		lt, eq = true, true
	case types.CmpGt:
		gt = true
	case types.CmpGe:
		eq, gt = true, true
	}
	return
}

// ---- predicate → selection bitmap ----

// evalPred fills dst with pred's selection over rows [base, base+n) of the
// chunk: bit k is row base+k. base is a multiple of 64, so the chunk's null
// bitmaps line up with dst word for word — which also means the last
// word's bits ≥ n may come back set (they are later rows' NULLs): the
// caller clears them. Boolean combination over bitmaps is exact boolean
// algebra, so the result equals per-row Predicate.Eval for every row.
func evalPred(pred types.Predicate, d *colstore.Data, base, n int, dst []uint64, sc *colScratch) {
	switch t := pred.(type) {
	case types.TruePred:
		bitmapFill(dst, n, true)
	case *types.CmpPred:
		evalCmp(t, d, base, n, dst, sc)
	case *intervalPred:
		col := &d.Cols[t.col]
		switch {
		case col.Enc != colstore.EncInt:
			evalPred(&t.AndPred, d, base, n, dst, sc) // leaf by leaf
			return
		case t.empty:
			bitmapFill(dst, n, false)
		default:
			intsOf(col, base, base+n).inRange(t.lo, t.hi, dst)
		}
		if col.Nulls != nil {
			patchNulls(dst, col.Nulls[base>>6:], t.nullPass)
		}
	case *types.AndPred:
		if len(t.Kids) == 0 {
			bitmapFill(dst, n, true) // empty AND is true, as in Eval
			return
		}
		evalPred(t.Kids[0], d, base, n, dst, sc)
		for _, k := range t.Kids[1:] {
			tmp := sc.acquireTemp(len(dst))
			evalPred(k, d, base, n, tmp, sc)
			bitmapAnd(dst, tmp)
			sc.releaseTemp(tmp)
		}
	case *types.OrPred:
		if len(t.Kids) == 0 {
			bitmapFill(dst, n, false) // empty OR is false, as in Eval
			return
		}
		evalPred(t.Kids[0], d, base, n, dst, sc)
		for _, k := range t.Kids[1:] {
			tmp := sc.acquireTemp(len(dst))
			evalPred(k, d, base, n, tmp, sc)
			bitmapOr(dst, tmp)
			sc.releaseTemp(tmp)
		}
	case *types.NotPred:
		evalPred(t.Kid, d, base, n, dst, sc)
		bitmapNot(dst, n)
	}
}

// selectRows evaluates pred over the span into the scratch bitmap: bit k
// of the result is chunk row base+k, set exactly for the span's rows that
// pass. The kernels run from the 64-row boundary at or before the span
// (see evalPred); the rows in front of it and the last word's tail are
// then masked off.
func (sc *colScratch) selectRows(pred types.Predicate, s span) (bm []uint64, base int) {
	base = s.lo &^ 63
	bm = sc.bitmap(s.hi - base)
	evalPred(pred, s.d, base, s.hi-base, bm, sc)
	bm[0] &^= 1<<uint(s.lo-base) - 1
	maskTail(bm, s.hi-base)
	return bm, base
}

// evalCmp evaluates one comparison leaf over rows [base, base+n). Fast
// paths cover typed columns against same-class constants; every mixed case
// falls back to types.Compare, which is exactly what
// types.CmpPred.Eval does for kind mismatches.
func evalCmp(t *types.CmpPred, d *colstore.Data, base, n int, dst []uint64, sc *colScratch) {
	lt, eq, gt := opFlags(t.Op)
	col := &d.Cols[t.ColIdx]
	val := t.Val
	var nulls []uint64
	if col.Nulls != nil {
		nulls = col.Nulls[base>>6:]
	}

	numericConst := val.Kind == types.KindInt || val.Kind == types.KindFloat || val.Kind == types.KindBool
	switch col.Enc {
	case colstore.EncFloat:
		switch {
		case numericConst:
			c := val.AsFloat()
			cmpFloats(col.Floats[base:base+n], c, dst, lt, eq, gt)
			patchNulls(dst, nulls, lt) // NULL sorts before numerics
		case val.Kind == types.KindString:
			bitmapFill(dst, n, lt) // numerics and NULL sort before strings
		default: // NULL constant
			bitmapFill(dst, n, gt)
			patchNulls(dst, nulls, eq)
		}
	case colstore.EncInt:
		switch {
		case val.Kind == types.KindInt:
			cmpInts(intsOf(col, base, base+n), val.I, dst, lt, eq, gt)
			patchNulls(dst, nulls, lt)
		case numericConst:
			c := val.AsFloat()
			cmpIntsAsFloat(intsOf(col, base, base+n), c, dst, lt, eq, gt)
			patchNulls(dst, nulls, lt)
		case val.Kind == types.KindString:
			bitmapFill(dst, n, lt)
		default:
			bitmapFill(dst, n, gt)
			patchNulls(dst, nulls, eq)
		}
	case colstore.EncBool:
		switch {
		case numericConst:
			// Bool vs Int/Float/Bool constants compare as floats under
			// types.Compare (only the Int–Int pair compares integrally).
			c := val.AsFloat()
			cmpIntsAsFloat(intsOf(col, base, base+n), c, dst, lt, eq, gt)
			patchNulls(dst, nulls, lt)
		case val.Kind == types.KindString:
			bitmapFill(dst, n, lt)
		default:
			bitmapFill(dst, n, gt)
			patchNulls(dst, nulls, eq)
		}
	case colstore.EncDict:
		switch {
		case val.Kind == types.KindString:
			// One comparison per distinct value of the chunk, then a table
			// lookup per row — or, for = and <> with AVX2, the range kernel
			// of the codes' width over [c, c], c the one code of the
			// constant (the Go range loop is slower than the table's).
			v := sc.passTab(col, t)
			if cpu.AVX2 && v.eq != dupCodes && (t.Op == types.CmpEq || t.Op == types.CmpNe) {
				switch {
				case v.eq == noCode:
					bitmapFill(dst, n, false)
				case col.Codes8 != nil:
					u8InRange(col.Codes8[base:base+n], uint8(v.eq), uint8(v.eq), dst)
				default:
					u16InRange(col.Codes16[base:base+n], uint16(v.eq), uint16(v.eq), dst)
				}
				if t.Op == types.CmpNe {
					bitmapNot(dst, n)
				}
			} else if col.Codes8 != nil {
				codesPass(col.Codes8[base:base+n], v.pass, dst)
			} else {
				codesPass(col.Codes16[base:base+n], v.pass, dst)
			}
			patchNulls(dst, nulls, lt) // NULL sorts before strings
		case numericConst:
			bitmapFill(dst, n, gt) // strings sort after numerics
			patchNulls(dst, nulls, lt)
		default: // NULL constant
			bitmapFill(dst, n, gt)
			patchNulls(dst, nulls, eq)
		}
	case colstore.EncRLE:
		// One verdict per RUN, painted over the run's bit range. The
		// generic Compare decides each run exactly as CmpPred.Eval
		// decides each row (NULL runs and cross-kind constants
		// included), so this is the typed kernels' semantics at run
		// granularity.
		bitmapFill(dst, n, false)
		for i, run := base, col.RunOf(base); i < base+n; run++ {
			end := min(int(col.RunEnds[run]), base+n)
			if cmpPass(types.Compare(col.RunVals[run], val), lt, eq, gt) {
				bitmapSetRange(dst, i-base, end-base)
			}
			i = end
		}
	default: // EncValue: mixed kinds, generic comparison per row
		vals := col.Values[base : base+n]
		for off := 0; off < n; off += 64 {
			var w uint64
			for k, v := range vals[off:min(off+64, n)] {
				if cmpPass(types.Compare(v, val), lt, eq, gt) {
					w |= 1 << uint(k)
				}
			}
			dst[off>>6] = w
		}
	}
}

// passTab returns the verdicts of comparison leaf t over the dictionary
// column col, computing them on the first span of the chunk that asks.
func (sc *colScratch) passTab(col *colstore.Column, t *types.CmpPred) dictVerdicts {
	key := passKey{col, t}
	if v, ok := sc.passTabs[key]; ok {
		return v
	}
	lt, eq, gt := opFlags(t.Op)
	v := dictVerdicts{eq: noCode}
	if k := len(sc.passFree); k > 0 {
		v.pass, sc.passFree = sc.passFree[k-1], sc.passFree[:k-1]
	}
	if cap(v.pass) < len(col.Dict) {
		v.pass = make([]bool, len(col.Dict))
	}
	v.pass = v.pass[:len(col.Dict)] // every entry is written below
	c := t.Val.S
	for j, s := range col.Dict {
		switch {
		case s < c:
			v.pass[j] = lt
		case s > c:
			v.pass[j] = gt
		default:
			v.pass[j] = eq
			if v.eq == noCode {
				v.eq = j
			} else {
				v.eq = dupCodes
			}
		}
	}
	if sc.passTabs == nil {
		sc.passTabs = make(map[passKey]dictVerdicts)
	}
	sc.passTabs[key] = v
	return v
}

// codesPass sets bit i of dst where tab[codes[i]].
func codesPass[C colstore.Code](codes []C, tab []bool, dst []uint64) {
	n := len(codes)
	for off := 0; off < n; off += 64 {
		blk := codes[off:min(off+64, n)]
		var w uint64
		j := 0
		for ; j+8 <= len(blk); j += 8 { // see intsInRangeGo
			q := blk[j : j+8 : j+8]
			b := b2u(tab[q[0]]) | b2u(tab[q[1]])<<1 | b2u(tab[q[2]])<<2 | b2u(tab[q[3]])<<3 |
				b2u(tab[q[4]])<<4 | b2u(tab[q[5]])<<5 | b2u(tab[q[6]])<<6 | b2u(tab[q[7]])<<7
			w |= b << (uint(j) & 63)
		}
		for ; j < len(blk); j++ {
			w |= b2u(tab[blk[j]]) << (uint(j) & 63)
		}
		dst[off>>6] = w
	}
}

// The compare kernels below are SIMD-shaped: the constant is hoisted, the
// per-element verdict is a branch-free table lookup indexed by
// 1 + (v>c) - (v<c) (both comparisons compile to SETcc, no branches), and
// the loops are 4-wide unrolled so the compiler can keep the verdicts in
// independent registers. NaN yields (v>c)=(v<c)=false → the eq slot, which
// is exactly how CmpPred.Eval treats it.

// b2u converts a bool to 0/1 (inlines to SETcc — no branch).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// verdictTab builds the 3-entry pass table for (lt, eq, gt).
func verdictTab(lt, eq, gt bool) [3]uint64 {
	return [3]uint64{b2u(lt), b2u(eq), b2u(gt)}
}

// cmpFloats compares a float column against c. The (lt,eq,gt) selection
// matches CmpPred.Eval exactly, including NaN (no
// ordered comparison holds, so the eq flag decides).
func cmpFloats(xs []float64, c float64, dst []uint64, lt, eq, gt bool) {
	tab := verdictTab(lt, eq, gt)
	n := len(xs)
	for base := 0; base < n; base += 64 {
		m := n - base
		if m > 64 {
			m = 64
		}
		blk := xs[base : base+m]
		var w uint64
		k := 0
		for ; k+4 <= m; k += 4 {
			v0, v1, v2, v3 := blk[k], blk[k+1], blk[k+2], blk[k+3]
			w |= tab[1+b2u(v0 > c)-b2u(v0 < c)] << uint(k)
			w |= tab[1+b2u(v1 > c)-b2u(v1 < c)] << uint(k+1)
			w |= tab[1+b2u(v2 > c)-b2u(v2 < c)] << uint(k+2)
			w |= tab[1+b2u(v3 > c)-b2u(v3 < c)] << uint(k+3)
		}
		for ; k < m; k++ {
			v := blk[k]
			w |= tab[1+b2u(v > c)-b2u(v < c)] << uint(k)
		}
		dst[base>>6] = w
	}
}

// cmpInts compares an int column against c. Integers have no unordered
// case, so every (lt, eq, gt) acceptance triple is a closed interval of
// int64 — one-sided for an order test, the single point c for = — or the
// complement of one: there is one compare loop, intCol.inRange.
func cmpInts(xs intCol, c int64, dst []uint64, lt, eq, gt bool) {
	n := xs.len()
	switch {
	case lt == eq && eq == gt: // nothing passes, or everything
		bitmapFill(dst, n, lt)
	case lt != gt: // an order test
		if lo, hi, ok := orderInterval(c, lt, eq); ok {
			xs.inRange(lo, hi, dst)
		} else {
			bitmapFill(dst, n, false)
		}
	default: // = and, complemented, <>
		xs.inRange(c, c, dst)
		if lt {
			bitmapNot(dst, n)
		}
	}
}

// intCol is rows of an int or bool chunk column in either of its forms
// (see colstore.Column): wide, xs, or narrow, base + offs — offs non-nil.
type intCol struct {
	xs   []int64
	base int64
	offs []uint16
}

// intsOf returns rows [lo, hi) of the int or bool column col.
func intsOf(col *colstore.Column, lo, hi int) intCol {
	if col.Narrow() {
		return intCol{base: col.Base, offs: col.Offs[lo:hi]}
	}
	return intCol{xs: col.Ints[lo:hi]}
}

func (c intCol) len() int { return len(c.xs) + len(c.offs) }

// at returns row i's payload.
func (c intCol) at(i int) int64 {
	if c.offs != nil {
		return c.base + int64(c.offs[i])
	}
	return c.xs[i]
}

// inRange sets bit i of dst where lo ≤ row i's payload ≤ hi (lo ≤ hi). A
// narrow column tests its offsets against the interval clamped to its
// window, one 16-bit kernel (u16InRange) for the 64-bit one.
func (c intCol) inRange(lo, hi int64, dst []uint64) {
	if c.offs == nil {
		intsInRange(c.xs, lo, hi, dst)
	} else if olo, ohi, ok := offRange(c.base, lo, hi); ok {
		u16InRange(c.offs, olo, ohi, dst)
	} else {
		bitmapFill(dst, len(c.offs), false)
	}
}

// offRange returns the offsets o ≤ 65535 with lo ≤ base+o ≤ hi as [olo,
// ohi], and false when there is none. Distances from base are taken as
// uint64, which holds every one exactly where int64 could overflow.
func offRange(base, lo, hi int64) (olo, ohi uint16, ok bool) {
	if hi < base {
		return 0, 0, false
	}
	var l uint64
	if lo > base {
		l = uint64(lo) - uint64(base)
	}
	if l > math.MaxUint16 {
		return 0, 0, false
	}
	return uint16(l), uint16(min(uint64(hi)-uint64(base), math.MaxUint16)), true
}

// orderInterval returns the closed interval [lo, hi] of int64 that passes
// an order test against c — below c when lt, above it otherwise, c itself
// when eq — and ok false when nothing can (x < MinInt64, x > MaxInt64).
func orderInterval(c int64, lt, eq bool) (lo, hi int64, ok bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	switch {
	case lt && eq:
		hi = c
	case lt:
		if c == math.MinInt64 {
			return 0, 0, false
		}
		hi = c - 1
	case eq:
		lo = c
	default:
		if c == math.MaxInt64 {
			return 0, 0, false
		}
		lo = c + 1
	}
	return lo, hi, true
}

// intsInRange sets bit i of dst where lo ≤ xs[i] ≤ hi (lo ≤ hi), as one
// unsigned comparison: x−lo wraps below lo to past every width, so
// uint64(x−lo) ≤ uint64(hi−lo) tests both sides at once. With AVX2 the
// whole words go to intsInRangeAVX2, whose compare is signed: flipping the
// sign bit of both sides keeps the unsigned order, and x−lo flipped is
// x−(lo flipped).
func intsInRange(xs []int64, lo, hi int64, dst []uint64) {
	const sign = 1 << 63
	if w := len(xs) &^ 63; cpu.AVX2 && w > 0 {
		intsInRangeAVX2(xs[:w], uint64(lo)^sign, (uint64(hi)-uint64(lo))^sign, dst)
		xs, dst = xs[w:], dst[w>>6:]
	}
	intsInRangeGo(xs, lo, hi, dst)
}

// intsInRangeGo is intsInRange's portable kernel. Eight verdicts are packed
// with constant shifts before one variable shift places them: the variable
// shift is the expensive instruction here.
func intsInRangeGo(xs []int64, lo, hi int64, dst []uint64) {
	ulo, width := uint64(lo), uint64(hi)-uint64(lo)
	for base := 0; base < len(xs); base += 64 {
		blk := xs[base:min(base+64, len(xs))]
		var w uint64
		j := 0
		for ; j+8 <= len(blk); j += 8 {
			q := blk[j : j+8 : j+8]
			b := b2u(uint64(q[0])-ulo <= width) | b2u(uint64(q[1])-ulo <= width)<<1 |
				b2u(uint64(q[2])-ulo <= width)<<2 | b2u(uint64(q[3])-ulo <= width)<<3 |
				b2u(uint64(q[4])-ulo <= width)<<4 | b2u(uint64(q[5])-ulo <= width)<<5 |
				b2u(uint64(q[6])-ulo <= width)<<6 | b2u(uint64(q[7])-ulo <= width)<<7
			w |= b << (uint(j) & 63)
		}
		for ; j < len(blk); j++ {
			w |= b2u(uint64(blk[j])-ulo <= width) << (uint(j) & 63)
		}
		dst[base>>6] = w
	}
}

// u16InRange sets bit i of dst where lo ≤ xs[i] ≤ hi (lo ≤ hi): a narrow
// int column's offsets against its clamped interval, or 2-byte dictionary
// codes against [c, c]. It is intsInRange's one unsigned comparison at 16
// bits, uint16(x−lo) ≤ hi−lo, with AVX2 over the whole words (whose compare
// is signed: see u16InRangeAVX2) and the Go kernel over the tail.
func u16InRange(xs []uint16, lo, hi uint16, dst []uint64) {
	if w := len(xs) &^ 63; cpu.AVX2 && w > 0 {
		u16InRangeAVX2(xs[:w], lo, hi-lo, dst)
		xs, dst = xs[w:], dst[w>>6:]
	}
	inRangeGo(xs, lo, hi, dst)
}

// u8InRange is u16InRange over 1-byte dictionary codes, with its own AVX2
// kernel (u8InRangeAVX2).
func u8InRange(xs []uint8, lo, hi uint8, dst []uint64) {
	if w := len(xs) &^ 63; cpu.AVX2 && w > 0 {
		u8InRangeAVX2(xs[:w], lo, hi-lo, dst)
		xs, dst = xs[w:], dst[w>>6:]
	}
	inRangeGo(xs, lo, hi, dst)
}

// inRangeGo is u16InRange's and u8InRange's portable kernel, shaped as
// intsInRangeGo, and the reference of their AVX2 kernels.
func inRangeGo[T uint8 | uint16](xs []T, lo, hi T, dst []uint64) {
	width := hi - lo
	for base := 0; base < len(xs); base += 64 {
		blk := xs[base:min(base+64, len(xs))]
		var w uint64
		j := 0
		for ; j+8 <= len(blk); j += 8 {
			q := blk[j : j+8 : j+8]
			b := b2u(q[0]-lo <= width) | b2u(q[1]-lo <= width)<<1 |
				b2u(q[2]-lo <= width)<<2 | b2u(q[3]-lo <= width)<<3 |
				b2u(q[4]-lo <= width)<<4 | b2u(q[5]-lo <= width)<<5 |
				b2u(q[6]-lo <= width)<<6 | b2u(q[7]-lo <= width)<<7
			w |= b << (uint(j) & 63)
		}
		for ; j < len(blk); j++ {
			w |= b2u(blk[j]-lo <= width) << (uint(j) & 63)
		}
		dst[base>>6] = w
	}
}

// interval is a closed interval [lo, hi] of int64, or no int at all.
type interval struct {
	lo, hi int64
	empty  bool
}

// intervalPred is a conjunction of two or more order comparisons of one
// column against numeric constants — dt >= lo AND dt < hi — with the
// interval of int64 they select worked out when the plan is compiled. Over
// an int-encoded chunk column it is one range pass (intCol.inRange: over
// int64s, or over 16-bit offsets when the column is narrow) where the leaves
// would each take their own and an AND; over any other encoding it is
// evaluated as the conjunction it embeds. Float columns are left to their
// leaves: a NaN takes each side's eq verdict separately, which no interval
// reproduces.
type intervalPred struct {
	types.AndPred
	col int
	interval
	// nullPass is a NULL row's verdict. NULL sorts before every number: it
	// passes upper bounds and fails any lower bound.
	nullPass bool
}

// orderLeaf returns p as a comparison leaf and the interval of int64 that
// passes it over an int-encoded column, when p is an order comparison (<,
// <=, >, >=) against a constant for which there is one (see normIntCmp for
// float and bool constants); a nil leaf otherwise.
func orderLeaf(p types.Predicate) (*types.CmpPred, interval) {
	t, ok := p.(*types.CmpPred)
	if !ok {
		return nil, interval{}
	}
	lt, eq, gt := opFlags(t.Op)
	if lt == gt {
		return nil, interval{}
	}
	c := t.Val.I
	switch t.Val.Kind {
	case types.KindInt:
	case types.KindFloat, types.KindBool:
		switch plan := normIntCmp(t.Val.AsFloat(), lt, eq, gt); plan.mode {
		case normFill:
			return t, interval{math.MinInt64, math.MaxInt64, !plan.fill}
		case normInt:
			c, lt, eq = plan.c, plan.lt, plan.eq
		default:
			return nil, interval{}
		}
	default:
		return nil, interval{}
	}
	lo, hi, ok := orderInterval(c, lt, eq)
	return t, interval{lo, hi, !ok}
}

// mergeIntervals returns pred as the scan evaluates it: the same tree with
// every conjunction flattened (the parser nests a AND b AND c two by two)
// and its order leaves that share a column folded into one intervalPred. A
// predicate with nothing to fold is returned as it is.
func mergeIntervals(pred types.Predicate) types.Predicate {
	switch t := pred.(type) {
	case *types.AndPred:
		kids, changed := conjuncts(t, make([]types.Predicate, 0, 4))
		if folded := foldOrderLeaves(kids); folded != nil {
			kids, changed = folded, true
		}
		switch {
		case !changed:
			return t
		case len(kids) == 1:
			return kids[0]
		}
		return &types.AndPred{Kids: kids}
	case *types.OrPred:
		var kids []types.Predicate
		for i, k := range t.Kids {
			if m := mergeIntervals(k); m != k {
				if kids == nil {
					kids = slices.Clone(t.Kids)
				}
				kids[i] = m
			}
		}
		if kids != nil {
			return &types.OrPred{Kids: kids}
		}
	case *types.NotPred:
		if kid := mergeIntervals(t.Kid); kid != t.Kid {
			return &types.NotPred{Kid: kid}
		}
	}
	return pred
}

// conjuncts appends to out the kids of t, those of conjunctions nested in it
// inlined and the rest as mergeIntervals returns them; changed says whether
// any came back different.
func conjuncts(t *types.AndPred, out []types.Predicate) (_ []types.Predicate, changed bool) {
	for _, k := range t.Kids {
		if and, ok := k.(*types.AndPred); ok {
			var c bool
			out, c = conjuncts(and, out)
			changed = changed || c
			continue
		}
		m := mergeIntervals(k)
		changed = changed || m != k
		out = append(out, m)
	}
	return out, changed
}

// foldOrderLeaves replaces, among a conjunction's kids, the order leaves of
// every column that has two or more by their intervalPred, in the first
// one's place. It returns nil when no column has two.
func foldOrderLeaves(kids []types.Predicate) []types.Predicate {
	shared := func(i, col int) bool {
		for j, k := range kids {
			if t, _ := orderLeaf(k); j != i && t != nil && t.ColIdx == col {
				return true
			}
		}
		return false
	}
	var out []types.Predicate
	for i, k := range kids {
		t, one := orderLeaf(k)
		if t == nil || !shared(i, t.ColIdx) {
			if out != nil {
				out = append(out, k)
			}
			continue
		}
		if out == nil {
			out = append(make([]types.Predicate, 0, len(kids)-1), kids[:i]...)
		}
		var iv *intervalPred
		for _, o := range out {
			if have, ok := o.(*intervalPred); ok && have.col == t.ColIdx {
				iv = have
			}
		}
		if iv == nil {
			iv = &intervalPred{AndPred: types.AndPred{Kids: make([]types.Predicate, 0, 2)}, col: t.ColIdx,
				interval: interval{lo: math.MinInt64, hi: math.MaxInt64}, nullPass: true}
			out = append(out, iv)
		}
		iv.Kids = append(iv.Kids, t)
		iv.lo, iv.hi = max(iv.lo, one.lo), min(iv.hi, one.hi)
		iv.empty = iv.empty || one.empty || iv.lo > iv.hi
		iv.nullPass = iv.nullPass && (t.Op == types.CmpLt || t.Op == types.CmpLe)
	}
	return out
}

// intCmpMode says how a float-constant comparison over an int column was
// normalized by normIntCmp.
type intCmpMode uint8

const (
	// normInt: compare against an int64 constant with remapped flags.
	normInt intCmpMode = iota
	// normFill: every element gets the same verdict.
	normFill
	// normFloat: no exact mapping; keep the per-element float conversion.
	normFloat
)

// intCmpPlan is normIntCmp's result.
type intCmpPlan struct {
	mode       intCmpMode
	c          int64 // normInt: the integer threshold
	lt, eq, gt bool  // normInt: remapped acceptance flags
	fill       bool  // normFill: the shared verdict
}

// normIntCmp maps "float64(v) versus float constant c" (CmpPred.Eval's
// semantics for an int column against a float/bool constant) onto an
// equivalent pure-int64 comparison, so the inner loop never converts.
//
//	x > 2.5   becomes  x >= 3   (fractional c: floor, eq joins the lt side)
//	x > 3.0   becomes  x > 3    (integral c below 2^53: exact as int64)
//	x < NaN   fills with the eq flag (no ordered comparison holds)
//	x < 1e300 fills with lt (c beyond every int64)
//
// Integral constants with 2^53 ≤ |c| ≤ 2^63 keep the float loop: there
// float64(v) rounds, so distinct ints can collide with c and no single
// int64 threshold reproduces the verdicts.
func normIntCmp(c float64, lt, eq, gt bool) intCmpPlan {
	const maxExact = float64(1 << 53)
	const maxInt64 = float64(1 << 63)
	switch {
	case c != c: // NaN
		return intCmpPlan{mode: normFill, fill: eq}
	case c > maxInt64:
		return intCmpPlan{mode: normFill, fill: lt}
	case c < -maxInt64:
		return intCmpPlan{mode: normFill, fill: gt}
	case c >= maxExact || c <= -maxExact:
		// ±2^63 endpoints included: float64(MaxInt64) rounds to 2^63
		// exactly, so even the boundary can produce an eq verdict.
		return intCmpPlan{mode: normFloat}
	case c == math.Trunc(c):
		// Exact integral constant: float64(v) vs c and v vs int64(c) agree
		// for every int64 v (rounding of |v| ≥ 2^53 cannot cross c).
		return intCmpPlan{mode: normInt, c: int64(c), lt: lt, eq: eq, gt: gt}
	default:
		// Fractional constant: no element equals c; v < c ⟺ v ≤ floor(c),
		// so comparing against floor(c) with eq folded into the lt side
		// reproduces every verdict.
		return intCmpPlan{mode: normInt, c: int64(math.Floor(c)), lt: lt, eq: lt, gt: gt}
	}
}

// cmpIntsAsFloat compares an int column against a float/bool constant with
// CmpPred.Eval's float semantics, normalized so the common case runs
// the pure-int kernel (no per-element conversion).
func cmpIntsAsFloat(xs intCol, c float64, dst []uint64, lt, eq, gt bool) {
	switch plan := normIntCmp(c, lt, eq, gt); plan.mode {
	case normFill:
		bitmapFill(dst, xs.len(), plan.fill)
	case normInt:
		cmpInts(xs, plan.c, dst, plan.lt, plan.eq, plan.gt)
	default:
		cmpIntsAsFloatSlow(xs, c, dst, lt, eq, gt)
	}
}

// cmpIntsAsFloatSlow is the per-element conversion fallback for constants
// in the 2^53..2^63 magnitude band.
func cmpIntsAsFloatSlow(xs intCol, c float64, dst []uint64, lt, eq, gt bool) {
	tab := verdictTab(lt, eq, gt)
	n := xs.len()
	for base := 0; base < n; base += 64 {
		m := n - base
		if m > 64 {
			m = 64
		}
		var w uint64
		for k := 0; k < m; k++ {
			v := float64(xs.at(base + k))
			w |= tab[1+b2u(v > c)-b2u(v < c)] << uint(k)
		}
		dst[base>>6] = w
	}
}

// ---- grouping + aggregation over selected rows ----

// findGroupVals returns (creating if needed) the group of the key vals, the
// row's values of the GROUP BY columns in order, h their hash (HashInto
// chained from HashSeed).
func (pt *Partial) findGroupVals(p *Plan, vals []types.Value, h uint64) *groupState {
	bucket := pt.groups[h]
	for _, gs := range bucket {
		if groupKeysEqual(gs.key, vals) {
			return gs
		}
	}
	gs := newGroupState(p)
	if len(vals) > 0 {
		gs.key = slices.Clone(vals)
	}
	pt.groups[h] = append(bucket, gs)
	return gs
}

// span is the scan's unit of work: rows [lo, hi) of one chunk — a maximal
// run of adjacent surviving blocks of a scan range that share a zone
// verdict and a sampling-metadata run. Priced blocks decide where spans
// may begin and end; nothing inside the kernels knows how many blocks a
// span covers.
type span struct {
	d      *colstore.Data
	lo, hi int
	// allTrue says the blocks' zones prove the predicate for every row (or
	// there is none), so selection is skipped.
	allTrue bool
	// metaRun is the metadata run every row lies in, or -1 when the rows
	// straddle runs and class keys resolve run by run.
	metaRun int
	// floor is the cap of the sample delta the rows lie in, which their
	// stratum frequencies are raised to (stats.FreqKey); 0 for a table's
	// rows, keyed by rate.
	floor int64
}

// metaCursor finds the metadata run of rows asked for in ascending order,
// as a scan's block walk does: a step or two on from the last answer, a
// search when the chunk changed or the walk jumped.
type metaCursor struct {
	d   *colstore.Data
	run int
}

func (c *metaCursor) runOf(d *colstore.Data, row int) int {
	ends := d.MetaEnds
	if c.d != d || (c.run > 0 && int(ends[c.run-1]) > row) {
		c.d, c.run = d, d.MetaRunOf(row)
		return c.run
	}
	for steps := 0; int(ends[c.run]) <= row; steps++ {
		if steps == 4 {
			c.run = d.MetaRunOf(row)
			break
		}
		c.run++
	}
	return c.run
}

// minImpliedRows is the smallest block the all-true zone check is asked
// about. Asking costs a few generic comparisons per leaf, and a yes splits
// the neighbours' span in two: not worth it to spare the kernels less than
// one bitmap word of rows (at 3-row blocks over unclustered data the
// answer flipped every other block and cut spans to six rows).
const minImpliedRows = 64

// spanOf classifies one block, of the delta of cap floor (0: a table's), as
// a span of its own.
func spanOf(b *storage.Block, rt *planRuntime, floor int64, meta *metaCursor) span {
	s := span{d: b.Chunk, lo: b.Off, hi: b.Off + b.N, metaRun: -1, floor: floor}
	s.allTrue = zonesProve(b, rt)
	if r := meta.runOf(s.d, s.lo); int(s.d.MetaEnds[r]) >= s.hi {
		s.metaRun = r
	}
	return s
}

// zonesProve is the all-true state of the three-state zone classification
// (zoneMayMatch decides all-false): b's zones prove the predicate for every
// row, so the scan skips evaluating it.
// A conjunction with no comparison leaf (no WHERE) holds for every row of
// every block, whatever its size.
func zonesProve(b *storage.Block, rt *planRuntime) bool {
	if rt.leaves == nil {
		return false
	}
	return len(rt.leaves) == 0 || (b.N >= minImpliedRows && zoneImpliesPred(b, rt.leaves))
}

// extends reports whether next continues s: the rows that follow it in the
// same chunk, under the same verdict and metadata run.
func (s span) extends(next span) bool {
	return s.d == next.d && s.hi == next.lo && s.allTrue == next.allTrue && s.metaRun == next.metaRun && s.floor == next.floor
}

// rowSel is the n rows of a span that one fold takes, ascending: every row
// of [lo, hi); or those listed in idxs; or — bm non-nil — those of [lo, hi)
// the selection bitmap bm holds, bit j being row base+j (the masked
// kernels' form, see Plan.foldsMasked). A fold that only counts (see
// Plan.readsRows) is handed n alone.
type rowSel struct {
	n      int
	idxs   []int32
	lo, hi int
	bm     []uint64
	base   int
}

func (s rowSel) contiguous() bool { return s.idxs == nil && s.bm == nil }

// rows returns the selection as explicit indices, writing a contiguous or
// masked one out into the scratch index buffer.
func (s rowSel) rows(sc *colScratch) []int32 {
	if s.idxs != nil {
		return s.idxs
	}
	idxs := sc.idxs[:0]
	for i := s.lo; i < s.hi; i++ {
		if s.bm == nil || s.bm[(i-s.base)>>6]&(1<<uint((i-s.base)&63)) != 0 {
			idxs = append(idxs, int32(i))
		}
	}
	sc.idxs = idxs[:0]
	return idxs
}

// rowsOf lists the n set bits of bm (bit k is chunk row base+k), ascending,
// in the scratch index buffer. The AVX2 kernel pays per byte of bm and the
// Go loop per set bit, so the kernel takes bitmaps of at least one row a
// byte; it stores eight lanes at a time, hence the buffer's 8 spare entries.
func (sc *colScratch) rowsOf(bm []uint64, base, n int) []int32 {
	if cap(sc.idxs) < n+8 {
		sc.idxs = make([]int32, n+8)
	}
	if cpu.AVX2 && n >= 8*len(bm) {
		rowsOfAVX2(bm, int32(base), sc.idxs[:n+8])
		return sc.idxs[:n]
	}
	idxs := sc.idxs[:n]
	k := 0
	for wi, w := range bm {
		at := int32(base + wi<<6)
		for ; w != 0; w &= w - 1 {
			idxs[k] = at + int32(bits.TrailingZeros64(w))
			k++
		}
	}
	return idxs
}

// plainCol reports whether every row of the column has a value in a typed
// slice the folds read in place: no NULLs, no runs, no mixed kinds.
func plainCol(c *colstore.Column) bool {
	return c.Nulls == nil && c.Enc != colstore.EncValue && c.Enc != colstore.EncRLE
}

// countsAs reports whether the aggregate over chunk d adds one per selected
// row whatever the row holds: COUNT(*), or COUNT of a column without NULLs.
func (a *AggPlan) countsAs(d *colstore.Data) bool {
	return a.Col < 0 || (a.Kind == stats.AggCount && plainCol(&d.Cols[a.Col]))
}

// readsRows reports whether scanning chunk d for p needs to know WHICH rows
// a predicate selected, not just how many: anything but a global aggregate
// of counts.
func (p *Plan) readsRows(d *colstore.Data) bool {
	if len(p.GroupBy) > 0 {
		return true
	}
	for ai := range p.Aggs {
		if !p.Aggs[ai].countsAs(d) {
			return true
		}
	}
	return false
}

// maskedCodes is the largest dictionary a GROUP BY column may have for a
// span to fold per code over its selection bitmap: each code costs a pass
// over the span's codes, and one more over the column per aggregate.
const maskedCodes = 8

// foldsMasked reports whether every fold of a span of chunk d can take its
// selection as a bitmap — the masked fold kernels, which a span uses when
// a quarter of its rows or more are selected: no quantile (it retains
// values), every other aggregate a count or over a float column without
// NULLs, and no GROUP BY or one dictionary column without NULLs of at most
// maskedCodes codes, stored 1-byte (the builder's width for any dictionary
// that small).
func (p *Plan) foldsMasked(d *colstore.Data) bool {
	for ai := range p.Aggs {
		a := &p.Aggs[ai]
		if a.Kind == stats.AggQuantile || !a.countsAs(d) && (d.Cols[a.Col].Enc != colstore.EncFloat || d.Cols[a.Col].Nulls != nil) {
			return false
		}
	}
	switch len(p.GroupBy) {
	case 0:
		return true
	case 1:
		c := &d.Cols[p.GroupBy[0]]
		return c.Enc == colstore.EncDict && c.Codes8 != nil && c.Nulls == nil && len(c.Dict) <= maskedCodes
	}
	return false
}

// runKey returns the class key the input derives for metadata run r — its
// rate's for a table (floor 0), its stratum frequency raised to the
// delta's cap for a sample — and records the run's stratum frequency as
// matched.
func (pt *Partial) runKey(d *colstore.Data, r int, floor int64) stats.Key {
	f := d.Freqs[r]
	if f > pt.MaxMatchedStratumFreq {
		pt.MaxMatchedStratumFreq = f
	}
	if floor == 0 {
		return stats.RateKey(d.Rates[r])
	}
	return stats.FreqKey(f, floor)
}

// groupCache returns the per-dictionary-code group cache for GROUP BY
// column c of the chunk being scanned into pt (see colScratch.codeGS).
func (sc *colScratch) groupCache(pt *Partial, c *colstore.Column) []*groupState {
	if sc.codeCol != c || sc.codePT != pt {
		if cap(sc.codeGS) < len(c.Dict) {
			sc.codeGS = make([]*groupState, len(c.Dict))
		}
		sc.codeGS = sc.codeGS[:len(c.Dict)]
		clear(sc.codeGS)
		sc.codeCol, sc.codePT = c, pt
	}
	return sc.codeGS
}

// scanSpan scans one span into the partial: selection into a bitmap
// (skipped when the zones already proved the predicate), then one fold per
// class key — the whole span when it lies in one metadata run, else cut
// where the key changes. A fold reads the selection as row indices, or —
// when a quarter of the span's rows or more are selected and every fold
// can (Plan.foldsMasked) — as the bitmap itself, through the masked
// kernels; a count probe reads no row at all (its matches are the
// bitmap's population). See the bit-identity contract at the top of the
// file.
func (pt *Partial) scanSpan(p *Plan, rt *planRuntime, s span, sc *colScratch) {
	d, n := s.d, s.hi-s.lo
	pt.RowsScanned += int64(n)

	// 1. Selection. bm stays nil when every row is selected.
	sel := rowSel{n: n, lo: s.lo, hi: s.hi}
	var bm []uint64
	base := 0
	if !s.allTrue {
		bm, base = sc.selectRows(rt.sel, s)
		if sel.n = bitmapCount(bm); sel.n == 0 {
			return
		}
		switch {
		case sel.n == n:
			bm = nil
		case !p.readsRows(d):
		case 4*sel.n >= n && p.foldsMasked(d):
			sel.bm, sel.base = bm, base
		default:
			sel.idxs = sc.rowsOf(bm, base, sel.n)
		}
	}
	pt.RowsMatched += int64(sel.n)

	// 2. One class key: one fold.
	if s.metaRun >= 0 {
		pt.fold(p, d, sel, pt.runKey(d, s.metaRun, s.floor), sc)
		return
	}

	// 3. The span straddles metadata runs: fold each stretch of runs whose
	// keys agree (a table's strata differ in frequency, not in rate; a
	// sample delta's strata under its cap share one key), consulting only
	// runs that hold a selected row. Stretches ascend, so every group still
	// sees its rows in row order.
	idxs := sel.idxs
	seg := rowSel{bm: sel.bm, base: sel.base}
	var segKey stats.Key
	for r, lo := d.MetaRunOf(s.lo), s.lo; lo < s.hi; r++ {
		hi := min(int(d.MetaEnds[r]), s.hi)
		m := hi - lo
		if bm != nil {
			m = bitmapCountRange(bm, lo-base, hi-base)
		}
		if m > 0 {
			k := pt.runKey(d, r, s.floor)
			if seg.n > 0 && k != segKey {
				seg.idxs, idxs = cut(idxs, seg.n)
				pt.fold(p, d, seg, segKey, sc)
				seg = rowSel{bm: sel.bm, base: sel.base}
			}
			if seg.n == 0 {
				seg.lo, segKey = lo, k
			}
			seg.n, seg.hi = seg.n+m, hi
		}
		lo = hi
	}
	seg.idxs, _ = cut(idxs, seg.n)
	pt.fold(p, d, seg, segKey, sc)
}

// cut splits the first n indices off idxs (nil stays nil).
func cut(idxs []int32, n int) (head, tail []int32) {
	if idxs == nil {
		return nil, nil
	}
	return idxs[:n], idxs[n:]
}

// fold feeds the selected rows, all of class key k, through grouping and
// aggregation. A selection that falls into known groups wholesale — no
// GROUP BY, or every row selected and a GROUP BY column stored as runs —
// aggregates straight from the selection; a single dictionary GROUP BY
// column folds per code (foldCodesMasked over a bitmap, foldByCode over
// indices); anything else takes a row-order pass that stages each
// selected row on its group, then aggregates group by group.
func (pt *Partial) fold(p *Plan, d *colstore.Data, sel rowSel, k stats.Key, sc *colScratch) {
	pt.WeightedMatched.Add(k, int64(sel.n))
	if len(p.GroupBy) == 0 {
		pt.accumulate(p, d, pt.findGroupVals(p, nil, types.HashSeed), sel, k, sc)
		return
	}
	keybuf := sc.keyBuf(len(p.GroupBy))
	var dictCol, rleCol *colstore.Column
	if len(p.GroupBy) == 1 {
		switch c := &d.Cols[p.GroupBy[0]]; {
		case c.Enc == colstore.EncDict && c.Nulls == nil:
			dictCol = c
		case c.Enc == colstore.EncRLE:
			rleCol = c
		}
	}
	if rleCol != nil && sel.contiguous() {
		// Every row of [lo, hi): one fold per run of the GROUP BY column.
		for lo, run := sel.lo, rleCol.RunOf(sel.lo); lo < sel.hi; run++ {
			hi := min(int(rleCol.RunEnds[run]), sel.hi)
			v := rleCol.RunVals[run]
			keybuf[0] = v
			gs := pt.findGroupVals(p, keybuf, v.HashInto(types.HashSeed))
			pt.accumulate(p, d, gs, rowSel{n: hi - lo, lo: lo, hi: hi}, k, sc)
			lo = hi
		}
		return
	}
	if sel.bm != nil && pt.foldCodesMasked(p, d, dictCol, sel, k, sc) {
		return
	}
	idxs := sel.rows(sc)
	if dictCol != nil && pt.foldByCode(p, d, dictCol, idxs, k, sc) {
		return
	}

	// Row-order pass: group staging.
	var codeGS []*groupState
	if dictCol != nil {
		codeGS = sc.groupCache(pt, dictCol)
	}
	rleRun := 0
	var rleGS *groupState
	if rleCol != nil {
		// Selected indices are ascending, so an advancing run cursor
		// resolves the group once per RUN instead of once per row — the RLE
		// payoff for GROUP BY stratification columns.
		rleRun = rleCol.RunOf(int(idxs[0]))
	}
	for _, i32 := range idxs {
		var gs *groupState
		switch {
		case rleCol != nil:
			for i32 >= rleCol.RunEnds[rleRun] {
				rleRun++
				rleGS = nil
			}
			if rleGS == nil {
				v := rleCol.RunVals[rleRun]
				keybuf[0] = v
				rleGS = pt.findGroupVals(p, keybuf, v.HashInto(types.HashSeed))
			}
			gs = rleGS
		case dictCol != nil:
			gs = pt.codeGroup(p, dictCol, codeGS, dictCol.Code(int(i32)), keybuf)
		default:
			h := types.HashSeed
			for ki, ci := range p.GroupBy {
				v := d.Cols[ci].Value(int(i32))
				keybuf[ki] = v
				h = v.HashInto(h)
			}
			gs = pt.findGroupVals(p, keybuf, h)
		}
		if gs.batchRows == nil {
			gs.batchRows = sc.getBatchRows()
			sc.touched = append(sc.touched, gs)
		}
		gs.batchRows = append(gs.batchRows, i32)
	}

	// Per-group aggregation. Each group's rows are fed to its accumulators
	// in row order.
	for _, gs := range sc.touched {
		rows := gs.batchRows
		pt.accumulate(p, d, gs, rowSel{n: len(rows), idxs: rows}, k, sc)
		sc.putBatchRows(rows)
		gs.batchRows = nil
	}
	sc.touched = sc.touched[:0]
}

// codeGroup returns the group of dictionary code c of GROUP BY column col,
// through the per-code cache.
func (pt *Partial) codeGroup(p *Plan, col *colstore.Column, codeGS []*groupState, c int, keybuf []types.Value) *groupState {
	gs := codeGS[c]
	if gs == nil {
		v := types.Str(col.Dict[c])
		keybuf[0] = v
		gs = pt.findGroupVals(p, keybuf, v.HashInto(types.HashSeed))
		codeGS[c] = gs
	}
	return gs
}

// foldCodesMasked folds a bitmap selection, all of key k, into the groups
// of the single dictionary GROUP BY column col (Plan.foldsMasked vouched
// for its size, its 1-byte codes and the aggregates): per code, a popcount pass counts the
// code's selected rows — which is every COUNT already — then each other
// aggregate adds them in one masked pass over its column. It declines
// (false) when two codes share a group — a dictionary holding one string
// twice, which blockfile does not refuse — since their rows must meet in
// row order; the groups it created by then are the ones the fallback
// creates.
func (pt *Partial) foldCodesMasked(p *Plan, d *colstore.Data, col *colstore.Column, sel rowSel, k stats.Key, sc *colScratch) bool {
	codes := col.Codes8
	codeGS := sc.groupCache(pt, col)
	keybuf := sc.keyBuf(1)
	var cnt [maskedCodes]int
	var groups [maskedCodes]*groupState
	for c := range col.Dict {
		if cnt[c] = stats.CountCodeMasked(codes, uint8(c), sel.bm, sel.base, sel.lo, sel.hi); cnt[c] == 0 {
			continue
		}
		groups[c] = pt.codeGroup(p, col, codeGS, c, keybuf)
		for _, other := range groups[:c] {
			if other == groups[c] {
				return false
			}
		}
	}
	for ai := range p.Aggs {
		a := &p.Aggs[ai]
		for c, gs := range groups[:len(col.Dict)] {
			switch {
			case gs == nil:
			case a.countsAs(d):
				gs.accs[ai].AddCount(cnt[c], k)
			default:
				slot := gs.accs[ai].Slot(cnt[c], k)
				stats.FoldCodeMasked(slot, d.Cols[a.Col].Floats, codes, uint8(c), sel.bm, sel.base, sel.lo, sel.hi)
			}
		}
	}
	return true
}

// foldByCode folds rows idxs, all of key k, into the groups of the single
// dictionary GROUP BY column col without staging them per group: one pass
// counts the rows of each code — which is every COUNT already — and then
// each aggregate makes one pass over the rows, adding each value to the
// moments its code selects. Every group still sees its rows in row order.
// It declines (false, nothing done) when an aggregate cannot be read in
// place: a column with NULLs, runs or mixed kinds, a dictionary column (its
// strings aggregate as 0), or a quantile, which retains its values.
func (pt *Partial) foldByCode(p *Plan, d *colstore.Data, col *colstore.Column, idxs []int32, k stats.Key, sc *colScratch) bool {
	for ai := range p.Aggs {
		a := &p.Aggs[ai]
		if a.Kind == stats.AggQuantile || !a.countsAs(d) && !numericCol(&d.Cols[a.Col]) {
			return false
		}
	}
	if nd := len(col.Dict); cap(sc.codeCnt) < nd {
		sc.codeCnt, sc.codeSlots = make([]int32, nd), make([]*stats.Moments, nd)
	}
	if col.Codes8 != nil {
		foldByCode(pt, p, d, col, col.Codes8, idxs, k, sc)
	} else {
		foldByCode(pt, p, d, col, col.Codes16, idxs, k, sc)
	}
	return true
}

// foldByCode is Partial.foldByCode, once it has accepted the aggregates,
// over col's codes, of either width.
func foldByCode[C colstore.Code](pt *Partial, p *Plan, d *colstore.Data, col *colstore.Column, codes []C, idxs []int32, k stats.Key, sc *colScratch) {
	cnt, slots := sc.codeCnt[:len(col.Dict)], sc.codeSlots[:len(col.Dict)]
	seen := sc.codeSeen[:0]
	for _, i := range idxs {
		c := codes[i]
		if cnt[c] == 0 {
			seen = append(seen, uint16(c))
		}
		cnt[c]++
	}
	sc.codeSeen = seen

	codeGS := sc.groupCache(pt, col)
	keybuf := sc.keyBuf(1)
	for ai := range p.Aggs {
		a := &p.Aggs[ai]
		if a.countsAs(d) {
			for _, c := range seen {
				pt.codeGroup(p, col, codeGS, int(c), keybuf).accs[ai].AddCount(int(cnt[c]), k)
			}
			continue
		}
		for _, c := range seen {
			slots[c] = pt.codeGroup(p, col, codeGS, int(c), keybuf).accs[ai].Slot(int(cnt[c]), k)
		}
		if src := &d.Cols[a.Col]; src.Enc == colstore.EncFloat {
			stats.FoldByCode(slots, codes, src.Floats, idxs)
		} else {
			stats.FoldByCode(slots, codes, sc.ints(src, idxs, 0, 0), idxs)
		}
	}
	for _, c := range seen {
		cnt[c] = 0
	}
}

// numericCol reports whether the folds read every row of the column as a
// number in place: a float, int or bool column without NULLs.
func numericCol(c *colstore.Column) bool {
	return plainCol(c) && c.Enc != colstore.EncDict
}

// accumulate feeds one group's selected rows, all of key k, through every
// aggregate.
func (pt *Partial) accumulate(p *Plan, d *colstore.Data, gs *groupState, sel rowSel, k stats.Key, sc *colScratch) {
	for ai := range p.Aggs {
		a := &p.Aggs[ai]
		acc := gs.accs[ai]
		if a.countsAs(d) {
			acc.AddCount(sel.n, k)
			continue
		}
		col := &d.Cols[a.Col]

		// A numeric column without NULLs folds in place: every selected row
		// has a value.
		if numericCol(col) {
			switch {
			case sel.bm != nil:
				stats.AddMasked(acc, col.Floats, sel.bm, sel.base, sel.lo, sel.hi, sel.n, k)
			case col.Enc == colstore.EncFloat:
				addRows(acc, col.Floats, sel, k)
			default: // EncInt, EncBool
				addRows(acc, sc.ints(col, sel.idxs, sel.lo, sel.hi), sel, k)
			}
			continue
		}

		// Gather (SQL semantics: NULLs are ignored, and the row drops out of
		// this aggregate only; strings aggregate as 0, Value.AsFloat). Rows
		// are ascending, so an RLE column resolves each run's value and
		// NULL-ness once.
		rows := sel.rows(sc)
		xs := grow(&sc.xs, sel.n)[:0]
		kept := sc.kept[:0]
		run, runEnd := 0, int32(0)
		var runVal types.Value
		if col.Enc == colstore.EncRLE {
			run = col.RunOf(int(rows[0]))
			runEnd, runVal = col.RunEnds[run], col.RunVals[run]
		}
		for _, ri := range rows {
			var x float64
			switch col.Enc {
			case colstore.EncRLE:
				for ri >= runEnd {
					run++
					runEnd, runVal = col.RunEnds[run], col.RunVals[run]
				}
				if runVal.IsNull() {
					continue
				}
				x = runVal.AsFloat()
			case colstore.EncValue:
				v := col.Values[ri]
				if v.IsNull() {
					continue
				}
				x = v.AsFloat()
			default:
				if col.IsNull(int(ri)) {
					continue
				}
				switch col.Enc {
				case colstore.EncFloat:
					x = col.Floats[ri]
				case colstore.EncInt, colstore.EncBool:
					x = float64(col.IntAt(int(ri)))
				} // EncDict: 0
			}
			xs = append(xs, x)
			kept = append(kept, ri)
		}
		sc.kept = kept[:0]
		if a.Kind == stats.AggCount {
			acc.AddCount(len(xs), k)
		} else {
			stats.AddValues(acc, xs, kept, k)
		}
	}
}

// addRows folds the selected rows — a range or a list — of the column src
// into acc, reading the column in place.
func addRows[T stats.Number](acc *stats.Acc, src []T, sel rowSel, k stats.Key) {
	if sel.contiguous() {
		stats.AddRange(acc, src, sel.lo, sel.hi, k)
	} else {
		stats.AddIndexed(acc, src, sel.idxs, k)
	}
}

// ints returns the payloads of the int or bool column col indexed by row,
// for the fold kernels to read in place: the wide form's Ints, or a narrow
// column's Base + offset — an int64 sum, so every value is the wide form's
// — written into the scratch at rows idxs, or rows [lo, hi) when idxs is
// nil. The scratch's other rows are stale.
func (sc *colScratch) ints(col *colstore.Column, idxs []int32, lo, hi int) []int64 {
	if !col.Narrow() {
		return col.Ints
	}
	if len(idxs) > 0 {
		hi = int(idxs[len(idxs)-1]) + 1
	}
	if cap(sc.wide) < hi {
		sc.wide = make([]int64, hi)
	}
	xs := sc.wide[:hi]
	if idxs == nil {
		for i := lo; i < hi; i++ {
			xs[i] = col.Base + int64(col.Offs[i])
		}
	}
	for _, i := range idxs {
		xs[i] = col.Base + int64(col.Offs[i])
	}
	return xs
}

// grow returns the first n entries of *buf, reallocating it when it holds
// fewer. What it held is not kept.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}
