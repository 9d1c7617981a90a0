package exec

import (
	"math"
	"math/bits"
	"sync"

	"blinkdb/internal/colstore"
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
// numbers throughout.
//
// BIT-IDENTITY CONTRACT: for any span, the scan must produce exactly the
// state a naive row-at-a-time evaluation would (the reference oracle in
// oracle_test.go): the same rows selected, the same groups created, and —
// because floating-point addition is not associative — every per-group
// accumulator fed the same (x, rate) pairs in the same row order, and
// WeightedMatched summed in row order. The kernels below therefore
// reorder work only in ways invisible to IEEE arithmetic (hoisting
// loop-invariant weight math, batching per-group accumulation without
// changing each group's row order).

// colScratch holds buffers reused across the spans one worker scans, so
// steady-state scanning allocates nothing.
type colScratch struct {
	sel     []uint64   // selection bitmap
	free    [][]uint64 // temp bitmaps for AND/OR subtrees
	idxs    []int32    // selected row indices, ascending
	xs      []float64  // gathered aggregate inputs
	rs      []float64  // gathered per-row rates
	keybuf  []types.Value
	rowbuf  types.Row
	touched []*groupState // groups staged during the current span

	// passTabs holds, per (dictionary column, comparison leaf), the leaf's
	// verdict for every dictionary code. A dictionary is chunk-wide, so the
	// string comparisons are paid once per chunk, not once per span.
	passTabs map[passKey][]bool

	// codeGS caches the group of every dictionary code of codeCol, the
	// GROUP BY column of the chunk being scanned into codePT. Groups live
	// as long as their partial, so the cache holds across that chunk's
	// spans and is cleared when either changes.
	codeGS  []*groupState
	codeCol *colstore.Column
	codePT  *Partial

	// rowPool/ratePool recycle the per-group staging buffers across
	// blocks and partials (group states die with their partial; their
	// buffers shouldn't).
	rowPool  [][]int32
	ratePool [][]float64
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
	clear(sc.passTabs)
	clear(sc.codeGS[:cap(sc.codeGS)])
	sc.codeCol, sc.codePT = nil, nil
	clear(sc.keybuf[:cap(sc.keybuf)])
	clear(sc.rowbuf[:cap(sc.rowbuf)])
	scratchPool.Put(sc)
}

// passKey names one memoized dictionary verdict table.
type passKey struct {
	col  *colstore.Column
	leaf *types.CmpPred
}

func (sc *colScratch) getBatchBufs() ([]int32, []float64) {
	var rows []int32
	var rates []float64
	if k := len(sc.rowPool); k > 0 {
		rows = sc.rowPool[k-1]
		sc.rowPool = sc.rowPool[:k-1]
	} else {
		rows = make([]int32, 0, 64)
	}
	if k := len(sc.ratePool); k > 0 {
		rates = sc.ratePool[k-1]
		sc.ratePool = sc.ratePool[:k-1]
	} else {
		rates = make([]float64, 0, 64)
	}
	return rows, rates
}

func (sc *colScratch) putBatchBufs(rows []int32, rates []float64) {
	sc.rowPool = append(sc.rowPool, rows[:0])
	sc.ratePool = append(sc.ratePool, rates[:0])
}

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

func (sc *colScratch) rowBuf(w int) types.Row {
	if cap(sc.rowbuf) < w {
		sc.rowbuf = make(types.Row, w)
	}
	return sc.rowbuf[:w]
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
	default:
		// Unknown predicate implementation: materialise rows and defer to
		// Eval.
		buf := sc.rowBuf(len(d.Cols))
		bitmapFill(dst, n, false)
		for i := 0; i < n; i++ {
			if pred.Eval(d.RowInto(buf, base+i)) {
				dst[i>>6] |= 1 << uint(i&63)
			}
		}
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
// types.CompilePredicate's row closures do for kind mismatches.
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
			cmpInts(col.Ints[base:base+n], val.I, dst, lt, eq, gt)
			patchNulls(dst, nulls, lt)
		case numericConst:
			c := val.AsFloat()
			cmpIntsAsFloat(col.Ints[base:base+n], c, dst, lt, eq, gt)
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
			cmpIntsAsFloat(col.Ints[base:base+n], c, dst, lt, eq, gt)
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
			// lookup per row.
			tab := sc.passTab(col, t)
			codes := col.Codes[base : base+n]
			for off := 0; off < n; off += 64 {
				blk := codes[off:min(off+64, n)]
				var w uint64
				j := 0
				for ; j+8 <= len(blk); j += 8 { // see intsBelow
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
		// generic Compare decides each run exactly as the compiled row
		// closures decide each row (NULL runs and cross-kind constants
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

// passTab returns the verdict of comparison leaf t for every code of the
// dictionary column col, computing it on the first span of the chunk that
// asks.
func (sc *colScratch) passTab(col *colstore.Column, t *types.CmpPred) []bool {
	key := passKey{col, t}
	if tab, ok := sc.passTabs[key]; ok {
		return tab
	}
	lt, eq, gt := opFlags(t.Op)
	tab := make([]bool, len(col.Dict))
	c := t.Val.S
	for j, s := range col.Dict {
		b := eq
		if s < c {
			b = lt
		} else if s > c {
			b = gt
		}
		tab[j] = b
	}
	if sc.passTabs == nil {
		sc.passTabs = make(map[passKey][]bool)
	}
	sc.passTabs[key] = tab
	return tab
}

// The compare kernels below are SIMD-shaped: the constant is hoisted, the
// per-element verdict is a branch-free table lookup indexed by
// 1 + (v>c) - (v<c) (both comparisons compile to SETcc, no branches), and
// the loops are 4-wide unrolled so the compiler can keep the verdicts in
// independent registers. NaN yields (v>c)=(v<c)=false → the eq slot, which
// is exactly how the compiled row closures treat it.

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
// matches the compiled row closure exactly, including NaN (no
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
// case, so every (lt, eq, gt) acceptance triple is x < k, x == k, or the
// complement of one of them: the inner loops do one comparison per
// element, and the complement is a pass over the finished words.
func cmpInts(xs []int64, c int64, dst []uint64, lt, eq, gt bool) {
	n := len(xs)
	switch {
	case lt == eq && eq == gt: // nothing passes, or everything
		bitmapFill(dst, n, lt)
	case lt != gt: // an order test, complemented when the upper side passes
		k := c        // <  is x < c,    >= its complement
		if lt == eq { // <= is x < c+1,  >  its complement
			if c == math.MaxInt64 {
				bitmapFill(dst, n, lt)
				return
			}
			k = c + 1
		}
		intsBelow(xs, k, dst)
		if gt {
			bitmapNot(dst, n)
		}
	default: // = and, complemented, <>
		intsEqual(xs, c, dst)
		if lt {
			bitmapNot(dst, n)
		}
	}
}

// intsBelow sets bit i of dst where xs[i] < k. Eight verdicts are packed
// with constant shifts before one variable shift places them: the variable
// shift is the expensive instruction here.
func intsBelow(xs []int64, k int64, dst []uint64) {
	for base := 0; base < len(xs); base += 64 {
		blk := xs[base:min(base+64, len(xs))]
		var w uint64
		j := 0
		for ; j+8 <= len(blk); j += 8 {
			q := blk[j : j+8 : j+8]
			b := b2u(q[0] < k) | b2u(q[1] < k)<<1 | b2u(q[2] < k)<<2 | b2u(q[3] < k)<<3 |
				b2u(q[4] < k)<<4 | b2u(q[5] < k)<<5 | b2u(q[6] < k)<<6 | b2u(q[7] < k)<<7
			w |= b << (uint(j) & 63)
		}
		for ; j < len(blk); j++ {
			w |= b2u(blk[j] < k) << (uint(j) & 63)
		}
		dst[base>>6] = w
	}
}

// intsEqual sets bit i of dst where xs[i] == k.
func intsEqual(xs []int64, k int64, dst []uint64) {
	for base := 0; base < len(xs); base += 64 {
		var w uint64
		for j, v := range xs[base:min(base+64, len(xs))] {
			w |= b2u(v == k) << uint(j)
		}
		dst[base>>6] = w
	}
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

// normIntCmp maps "float64(v) versus float constant c" (the row closure's
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
// the row closure's float semantics, normalized so the common case runs
// the pure-int kernel (no per-element conversion).
func cmpIntsAsFloat(xs []int64, c float64, dst []uint64, lt, eq, gt bool) {
	switch plan := normIntCmp(c, lt, eq, gt); plan.mode {
	case normFill:
		bitmapFill(dst, len(xs), plan.fill)
	case normInt:
		cmpInts(xs, plan.c, dst, plan.lt, plan.eq, plan.gt)
	default:
		cmpIntsAsFloatSlow(xs, c, dst, lt, eq, gt)
	}
}

// cmpIntsAsFloatSlow is the per-element conversion fallback for constants
// in the 2^53..2^63 magnitude band.
func cmpIntsAsFloatSlow(xs []int64, c float64, dst []uint64, lt, eq, gt bool) {
	tab := verdictTab(lt, eq, gt)
	n := len(xs)
	for base := 0; base < n; base += 64 {
		m := n - base
		if m > 64 {
			m = 64
		}
		blk := xs[base : base+m]
		var w uint64
		for k := 0; k < m; k++ {
			v := float64(blk[k])
			w |= tab[1+b2u(v > c)-b2u(v < c)] << uint(k)
		}
		dst[base>>6] = w
	}
}

// ---- grouping + aggregation over selected rows ----

// findGroupVals mirrors Partial.findGroup for keys extracted directly
// from columns (vals is the projection onto the GROUP BY columns; h its
// HashRowKey-compatible hash).
func (pt *Partial) findGroupVals(p *Plan, vals []types.Value, h uint64) *groupState {
	bucket := pt.groups[h]
	for _, gs := range bucket {
		ok := true
		for ki := range vals {
			if !types.GroupEqual(gs.key[ki], vals[ki]) {
				ok = false
				break
			}
		}
		if ok {
			return gs
		}
	}
	gs := &groupState{accs: make([]*stats.Acc, len(p.Aggs))}
	for ai, a := range p.Aggs {
		gs.accs[ai] = stats.NewAcc(a.Kind, a.P)
	}
	if len(vals) > 0 {
		gs.key = make([]types.Value, len(vals))
		copy(gs.key, vals)
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
	// straddle runs and sampling rates resolve row by row.
	metaRun int
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

// spanOf classifies one block as a span of its own. Join scans evaluate
// their own fact-side predicate and rates per probed row, so they only
// need the window.
func spanOf(b *storage.Block, rt *planRuntime, join bool, meta *metaCursor) span {
	s := span{d: b.Chunk, lo: b.Off, hi: b.Off + b.N, metaRun: -1}
	if join {
		return s
	}
	// Three-state zone classification: zoneMayMatch handled all-false; a
	// zone bracket that PROVES the predicate lets the scan skip evaluation.
	s.allTrue = rt.pred == nil || (b.N >= minImpliedRows && rt.leaves != nil && zoneImpliesPred(b, rt.leaves))
	if r := meta.runOf(s.d, s.lo); int(s.d.MetaEnds[r]) >= s.hi {
		s.metaRun = r
	}
	return s
}

// extends reports whether next continues s: the rows that follow it in the
// same chunk, under the same verdict and metadata run.
func (s span) extends(next span) bool {
	return s.d == next.d && s.hi == next.lo && s.allTrue == next.allTrue && s.metaRun == next.metaRun
}

// rowSel is the rows of a span that one group folds, ascending: idxs, or
// every row of [lo, hi) when idxs is nil.
type rowSel struct {
	idxs   []int32
	lo, hi int
}

func (s rowSel) len() int {
	if s.idxs != nil {
		return len(s.idxs)
	}
	return s.hi - s.lo
}

// rows returns the selection as explicit indices, writing a contiguous one
// out into the scratch index buffer.
func (s rowSel) rows(sc *colScratch) []int32 {
	if s.idxs != nil {
		return s.idxs
	}
	idxs := sc.idxs[:0]
	for i := s.lo; i < s.hi; i++ {
		idxs = append(idxs, int32(i))
	}
	sc.idxs = idxs[:0]
	return idxs
}

// runRate returns the sampling rate the input derives for metadata run r,
// and records the run's stratum frequency as matched.
func (pt *Partial) runRate(in Input, d *colstore.Data, r int) float64 {
	if f := d.Freqs[r]; f > pt.MaxMatchedStratumFreq {
		pt.MaxMatchedStratumFreq = f
	}
	if in.Rate == nil {
		return 1
	}
	return in.Rate(storage.RowMeta{Rate: d.Rates[r], StratumFreq: d.Freqs[r]})
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
// (skipped when the zones already proved the predicate), then grouping and
// aggregation over the selected rows. A selection that folds into known
// groups wholesale — no GROUP BY, or every row selected and a GROUP BY
// column stored as runs — under one sampling rate aggregates straight from
// the selection; anything else takes a row-order pass that stages each
// selected row on its group, then aggregates group by group. See the
// bit-identity contract at the top of the file.
func (pt *Partial) scanSpan(p *Plan, in Input, s span, sc *colScratch) {
	d, n := s.d, s.hi-s.lo
	pt.RowsScanned += int64(n)
	if cap(sc.idxs) < n {
		sc.idxs = make([]int32, 0, n)
	}

	// 1. Selection.
	sel := rowSel{lo: s.lo, hi: s.hi}
	if !s.allTrue {
		bm, base := sc.selectRows(p.Pred, s)
		idxs := sc.idxs[:0]
		for wi, w := range bm {
			at := int32(base + wi<<6)
			for w != 0 {
				idxs = append(idxs, at+int32(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		if len(idxs) == 0 {
			return
		}
		if len(idxs) < n { // else every row passed: the contiguous selection
			sel.idxs = idxs
		}
	}
	matched := sel.len()
	pt.RowsMatched += int64(matched)

	// 2. Sampling rate. Inside one metadata run the rate (and its
	// reciprocal) is computed once — the same value a per-row evaluation
	// derives.
	uniform := s.metaRun >= 0
	var urate, uinv float64
	if uniform {
		if urate = pt.runRate(in, d, s.metaRun); urate > 0 {
			uinv = 1 / urate
		}
	}

	// 3a. Wholesale folds: no row-order pass, no staging. AddBatch is a
	// sequential fold, so handing one group's rows over in consecutive
	// in-order calls reproduces the exact operation stream of feeding them
	// one at a time.
	if uniform {
		var byRun *colstore.Column
		if len(p.GroupBy) == 1 && sel.idxs == nil && d.Cols[p.GroupBy[0]].Enc == colstore.EncRLE {
			byRun = &d.Cols[p.GroupBy[0]]
		}
		if len(p.GroupBy) == 0 || byRun != nil {
			if urate > 0 {
				wm := pt.WeightedMatched // one addition per row, in a register
				for j := 0; j < matched; j++ {
					wm += uinv
				}
				pt.WeightedMatched = wm
			}
			if byRun == nil {
				pt.accumulate(p, d, pt.findGroupVals(p, nil, types.HashSeed), sel, nil, urate, sc)
				return
			}
			keybuf := sc.keyBuf(1)
			for lo, run := s.lo, byRun.RunOf(s.lo); lo < s.hi; run++ {
				hi := min(int(byRun.RunEnds[run]), s.hi)
				v := byRun.RunVals[run]
				keybuf[0] = v
				gs := pt.findGroupVals(p, keybuf, v.HashInto(types.HashSeed))
				pt.accumulate(p, d, gs, rowSel{lo: lo, hi: hi}, nil, urate, sc)
				lo = hi
			}
			return
		}
	}

	// 3b. Row-order pass: sampling rate per metadata run crossed, scan
	// counters, group staging.
	idxs := sel.rows(sc)
	var dictCol *colstore.Column
	var codeGS []*groupState
	var rleCol *colstore.Column
	rleRun := 0
	var rleGS *groupState
	if len(p.GroupBy) == 1 {
		switch c := &d.Cols[p.GroupBy[0]]; {
		case c.Enc == colstore.EncDict && c.Nulls == nil:
			dictCol, codeGS = c, sc.groupCache(pt, c)
		case c.Enc == colstore.EncRLE:
			// Selected indices are ascending, so an advancing run cursor
			// resolves the group once per RUN instead of once per row —
			// the RLE payoff for GROUP BY stratification columns.
			rleCol, rleRun = c, c.RunOf(int(idxs[0]))
		}
	}
	keybuf := sc.keyBuf(len(p.GroupBy))
	var globalGS *groupState

	// Even when metadata varies, the derived rates often don't (e.g. a
	// base table whose stratum frequencies differ but whose rates are all
	// 1). Track that: constant rates let aggregation hoist the weight math
	// exactly as in the single-run case.
	rate, inv, ratesEqual := urate, uinv, true
	metaRun, metaEnd := s.metaRun, int32(s.hi)
	if !uniform {
		metaRun = d.MetaRunOf(int(idxs[0]))
		metaEnd = d.MetaEnds[metaRun]
		if rate = pt.runRate(in, d, metaRun); rate > 0 {
			inv = 1 / rate
		}
	}
	firstRate := rate
	wm := pt.WeightedMatched // summed in row order, in a register
	for _, i32 := range idxs {
		if i32 >= metaEnd { // crossed into a later metadata run
			for metaRun++; d.MetaEnds[metaRun] <= i32; metaRun++ {
			}
			metaEnd = d.MetaEnds[metaRun]
			if rate = pt.runRate(in, d, metaRun); rate > 0 {
				inv = 1 / rate
			}
			if rate != firstRate {
				ratesEqual = false
			}
		}
		if rate > 0 {
			wm += inv
		}

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
			code := dictCol.Codes[i32]
			gs = codeGS[code]
			if gs == nil {
				v := types.Str(dictCol.Dict[code])
				keybuf[0] = v
				gs = pt.findGroupVals(p, keybuf, v.HashInto(types.HashSeed))
				codeGS[code] = gs
			}
		case len(p.GroupBy) == 0:
			if globalGS == nil {
				globalGS = pt.findGroupVals(p, nil, types.HashSeed)
			}
			gs = globalGS
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
			gs.batchRows, gs.batchRates = sc.getBatchBufs()
			sc.touched = append(sc.touched, gs)
		}
		gs.batchRows = append(gs.batchRows, i32)
		if !uniform {
			gs.batchRates = append(gs.batchRates, rate)
		}
	}
	pt.WeightedMatched = wm

	// 3c. Batched per-group aggregation. Each group's rows are fed to its
	// accumulators in row order, so every Acc sees exactly the sequence a
	// row-at-a-time evaluation would produce. A span whose derived rates
	// turned out constant uses the hoisted-weight path with that shared
	// rate — the per-row weights are the same values either way.
	if ratesEqual {
		uniform, urate = true, firstRate
	}
	for _, gs := range sc.touched {
		rates := gs.batchRates
		if uniform {
			rates = nil
		}
		pt.accumulate(p, d, gs, rowSel{idxs: gs.batchRows}, rates, urate, sc)
		sc.putBatchBufs(gs.batchRows, gs.batchRates)
		gs.batchRows, gs.batchRates = nil, nil
	}
	sc.touched = sc.touched[:0]
}

// accumulate feeds one group's selected rows through every aggregate:
// under the shared rate urate when rates is nil, else under rates, which
// holds one rate per selected row.
func (pt *Partial) accumulate(p *Plan, d *colstore.Data, gs *groupState, sel rowSel, rates []float64, urate float64, sc *colScratch) {
	m := sel.len()
	for ai := range p.Aggs {
		a := &p.Aggs[ai]
		acc := gs.accs[ai]
		if a.Col < 0 {
			acc.AddBatch(nil, rates, m, urate) // COUNT(*): every row contributes x = 1
			continue
		}
		col := &d.Cols[a.Col]
		isCount := a.Kind == stats.AggCount

		// Fast path: a typed column without NULLs — every selected row has
		// a value, so the rates stay aligned with the selection, and a
		// contiguous selection of floats is the column slice itself.
		if col.Nulls == nil && col.Enc != colstore.EncValue && col.Enc != colstore.EncRLE {
			if isCount {
				acc.AddBatch(nil, rates, m, urate)
				continue
			}
			var xs []float64
			switch {
			case col.Enc == colstore.EncFloat && sel.idxs == nil:
				xs = col.Floats[sel.lo:sel.hi]
			case col.Enc == colstore.EncFloat:
				xs = growFloats(&sc.xs, m)
				src := col.Floats
				for j, ri := range sel.idxs {
					xs[j] = src[ri]
				}
			case col.Enc == colstore.EncDict: // strings aggregate as 0 (Value.AsFloat)
				xs = growFloats(&sc.xs, m)
				clear(xs)
			case sel.idxs == nil: // EncInt, EncBool
				xs = growFloats(&sc.xs, m)
				for j, v := range col.Ints[sel.lo:sel.hi] {
					xs[j] = float64(v)
				}
			default:
				xs = growFloats(&sc.xs, m)
				src := col.Ints
				for j, ri := range sel.idxs {
					xs[j] = float64(src[ri])
				}
			}
			acc.AddBatch(xs, rates, m, urate)
			continue
		}

		// NULL-skipping gather (SQL semantics: NULLs are ignored, and the
		// row drops out of this aggregate only). Rows are ascending, so an
		// RLE column resolves each run's value and NULL-ness once.
		rows := sel.rows(sc)
		xs := growFloats(&sc.xs, m)[:0]
		var rs []float64
		if rates != nil {
			rs = growFloats(&sc.rs, m)[:0]
		}
		run, runEnd := 0, int32(0)
		var runVal types.Value
		if col.Enc == colstore.EncRLE {
			run = col.RunOf(int(rows[0]))
			runEnd, runVal = col.RunEnds[run], col.RunVals[run]
		}
		for j, ri := range rows {
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
					x = float64(col.Ints[ri])
				} // EncDict: 0
			}
			xs = append(xs, x)
			if rates != nil {
				rs = append(rs, rates[j])
			}
		}
		if isCount {
			acc.AddBatch(nil, rs, len(xs), urate)
		} else {
			acc.AddBatch(xs, rs, len(xs), urate)
		}
	}
}

func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// scanSpanJoin is the late-materialization join scan: the fact-side
// predicate conjuncts are evaluated FIRST over the span, join keys of
// surviving rows are probed straight out of the key columns, and only fact
// rows with at least one dimension match are materialised into the pooled
// buffer (sized once at plan time, joinRuntime.width; nothing downstream
// retains it — addMatched copies what it keeps). Expansion order, filter
// semantics and aggregation order are those of expanding every fact row
// and filtering the combined rows — rows that would be discarded after
// materialising (predicate miss or empty join) are skipped before paying
// for materialisation, which changes no emitted value.
func (pt *Partial) scanSpanJoin(p *Plan, in Input, s span, sc *colScratch, jr *joinRuntime) {
	d := s.d
	pt.RowsScanned += int64(s.hi - s.lo)

	buf := sc.rowBuf(jr.width)
	factW := len(d.Cols)
	ix0 := jr.idxs[0]
	keyCol := &d.Cols[ix0.spec.LeftCol]
	// Probed rows ascend, so their sampling metadata comes off a run cursor.
	metaRun := -1
	var rate float64
	var freq int64
	emit := func(r types.Row) {
		if jr.restPred != nil && !jr.restPred(r) {
			return
		}
		pt.addMatched(p, r, rate, freq)
	}
	probe := func(i int) {
		// Probe the first join from the key column directly — no
		// materialisation until a match exists.
		matches := ix0.lookup(keyCol.Value(i))
		if len(matches) == 0 {
			return
		}
		if metaRun < 0 || int(d.MetaEnds[metaRun]) <= i {
			metaRun = d.MetaRunOf(i)
			rate, freq = 1.0, d.Freqs[metaRun]
			if in.Rate != nil {
				rate = in.Rate(storage.RowMeta{Rate: d.Rates[metaRun], StratumFreq: freq})
			}
		}
		d.RowInto(buf[:factW], i)
		for _, dimRow := range matches {
			copy(buf[factW:factW+len(dimRow)], dimRow)
			jr.expandInto(buf, factW+len(dimRow), 1, emit)
		}
	}

	// Fact-side selection: only the conjuncts that reference fact columns.
	// (Rows they reject can never produce a passing combined row, so
	// filtering before expansion is exact.)
	if jr.factPred == nil {
		for i := s.lo; i < s.hi; i++ {
			probe(i)
		}
		return
	}
	bm, base := sc.selectRows(jr.factPred, s)
	for wi, w := range bm {
		at := base + wi<<6
		for w != 0 {
			probe(at + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
