package exec

import (
	"math"
	"math/bits"

	"blinkdb/internal/colstore"
	"blinkdb/internal/stats"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// This file implements the vectorized scan over columnar blocks
// (internal/colstore): predicates are evaluated column-at-a-time into a
// selection bitmap, then grouping and aggregation run over the selected
// rows using contiguous typed slices — no types.Row is materialised and
// no per-row interface dispatch happens.
//
// BIT-IDENTITY CONTRACT: for any block, the scan must produce exactly the
// state a naive row-at-a-time evaluation would (the reference oracle in
// oracle_test.go): the same rows selected, the same groups created, and —
// because floating-point addition is not associative — every per-group
// accumulator fed the same (x, rate) pairs in the same row order, and
// WeightedMatched summed in row order. The kernels below therefore
// reorder work only in ways invisible to IEEE arithmetic (hoisting
// loop-invariant weight math, batching per-group accumulation without
// changing each group's row order).

// colScratch holds buffers reused across the columnar blocks of one
// RunPartial call, so steady-state scanning allocates nothing.
type colScratch struct {
	sel     []uint64   // selection bitmap
	free    [][]uint64 // temp bitmaps for AND/OR subtrees
	idxs    []int32    // selected row indices, ascending
	passTab []bool     // per-dictionary-code predicate outcomes
	xs      []float64  // gathered aggregate inputs
	rs      []float64  // gathered per-row rates
	keybuf  []types.Value
	rowbuf  types.Row
	codeGS  []*groupState // per-dictionary-code group cache
	touched []*groupState // groups staged during the current block

	// rowPool/ratePool recycle the per-group staging buffers across
	// blocks and partials (group states die with their partial; their
	// buffers shouldn't).
	rowPool  [][]int32
	ratePool [][]float64
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

// patchNulls forces the selection outcome of every NULL row to b. Null
// bitmaps never set bits past the row count, so no tail masking is needed.
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

// evalPred fills dst with pred's selection over the block; bits ≥ n stay
// clear. Boolean combination over bitmaps is exact boolean algebra, so the
// result equals per-row Predicate.Eval for every row.
func evalPred(pred types.Predicate, d *colstore.Data, dst []uint64, n int, sc *colScratch) {
	switch t := pred.(type) {
	case types.TruePred:
		bitmapFill(dst, n, true)
	case *types.CmpPred:
		evalCmp(t, d, dst, n, sc)
	case *types.AndPred:
		if len(t.Kids) == 0 {
			bitmapFill(dst, n, true) // empty AND is true, as in Eval
			return
		}
		evalPred(t.Kids[0], d, dst, n, sc)
		for _, k := range t.Kids[1:] {
			tmp := sc.acquireTemp(len(dst))
			evalPred(k, d, tmp, n, sc)
			bitmapAnd(dst, tmp)
			sc.releaseTemp(tmp)
		}
	case *types.OrPred:
		if len(t.Kids) == 0 {
			bitmapFill(dst, n, false) // empty OR is false, as in Eval
			return
		}
		evalPred(t.Kids[0], d, dst, n, sc)
		for _, k := range t.Kids[1:] {
			tmp := sc.acquireTemp(len(dst))
			evalPred(k, d, tmp, n, sc)
			bitmapOr(dst, tmp)
			sc.releaseTemp(tmp)
		}
	case *types.NotPred:
		evalPred(t.Kid, d, dst, n, sc)
		bitmapNot(dst, n)
	default:
		// Unknown predicate implementation: materialise rows and defer to
		// Eval.
		buf := sc.rowBuf(len(d.Cols))
		bitmapFill(dst, n, false)
		for i := 0; i < n; i++ {
			if pred.Eval(d.RowInto(buf, i)) {
				dst[i>>6] |= 1 << uint(i&63)
			}
		}
	}
}

// evalCmp evaluates one comparison leaf. Fast paths cover typed columns
// against same-class constants; every mixed case falls back to
// types.Compare, which is exactly what types.CompilePredicate's row
// closures do for kind mismatches.
func evalCmp(t *types.CmpPred, d *colstore.Data, dst []uint64, n int, sc *colScratch) {
	lt, eq, gt := opFlags(t.Op)
	col := &d.Cols[t.ColIdx]
	val := t.Val

	numericConst := val.Kind == types.KindInt || val.Kind == types.KindFloat || val.Kind == types.KindBool
	switch col.Enc {
	case colstore.EncFloat:
		switch {
		case numericConst:
			c := val.AsFloat()
			cmpFloats(col.Floats[:n], c, dst, lt, eq, gt)
			patchNulls(dst, col.Nulls, lt) // NULL sorts before numerics
		case val.Kind == types.KindString:
			bitmapFill(dst, n, lt) // numerics and NULL sort before strings
		default: // NULL constant
			bitmapFill(dst, n, gt)
			patchNulls(dst, col.Nulls, eq)
		}
	case colstore.EncInt:
		switch {
		case val.Kind == types.KindInt:
			cmpInts(col.Ints[:n], val.I, dst, lt, eq, gt)
			patchNulls(dst, col.Nulls, lt)
		case numericConst:
			c := val.AsFloat()
			cmpIntsAsFloat(col.Ints[:n], c, dst, lt, eq, gt)
			patchNulls(dst, col.Nulls, lt)
		case val.Kind == types.KindString:
			bitmapFill(dst, n, lt)
		default:
			bitmapFill(dst, n, gt)
			patchNulls(dst, col.Nulls, eq)
		}
	case colstore.EncBool:
		switch {
		case numericConst:
			// Bool vs Int/Float/Bool constants compare as floats under
			// types.Compare (only the Int–Int pair compares integrally).
			c := val.AsFloat()
			cmpIntsAsFloat(col.Ints[:n], c, dst, lt, eq, gt)
			patchNulls(dst, col.Nulls, lt)
		case val.Kind == types.KindString:
			bitmapFill(dst, n, lt)
		default:
			bitmapFill(dst, n, gt)
			patchNulls(dst, col.Nulls, eq)
		}
	case colstore.EncDict:
		switch {
		case val.Kind == types.KindString:
			// One comparison per distinct value, then a table lookup per
			// row.
			if cap(sc.passTab) < len(col.Dict) {
				sc.passTab = make([]bool, len(col.Dict))
			}
			tab := sc.passTab[:len(col.Dict)]
			c := val.S
			for j, s := range col.Dict {
				b := eq
				if s < c {
					b = lt
				} else if s > c {
					b = gt
				}
				tab[j] = b
			}
			codes := col.Codes[:n]
			for base := 0; base < n; base += 64 {
				var w uint64
				m := n - base
				if m > 64 {
					m = 64
				}
				for k := 0; k < m; k++ {
					if tab[codes[base+k]] {
						w |= 1 << uint(k)
					}
				}
				dst[base>>6] = w
			}
			patchNulls(dst, col.Nulls, lt) // NULL sorts before strings
		case numericConst:
			bitmapFill(dst, n, gt) // strings sort after numerics
			patchNulls(dst, col.Nulls, lt)
		default: // NULL constant
			bitmapFill(dst, n, gt)
			patchNulls(dst, col.Nulls, eq)
		}
	case colstore.EncRLE:
		// One verdict per RUN, painted over the run's bit range. The
		// generic Compare decides each run exactly as the compiled row
		// closures decide each row (NULL runs and cross-kind constants
		// included), so this is the typed kernels' semantics at run
		// granularity.
		bitmapFill(dst, n, false)
		prev := 0
		for r, rv := range col.RunVals {
			end := int(col.RunEnds[r])
			if cmpPass(types.Compare(rv, val), lt, eq, gt) {
				bitmapSetRange(dst, prev, end)
			}
			prev = end
		}
	default: // EncValue: mixed kinds, generic comparison per row
		vals := col.Values[:n]
		for base := 0; base < n; base += 64 {
			var w uint64
			m := n - base
			if m > 64 {
				m = 64
			}
			for k := 0; k < m; k++ {
				if cmpPass(types.Compare(vals[base+k], val), lt, eq, gt) {
					w |= 1 << uint(k)
				}
			}
			dst[base>>6] = w
		}
	}
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

func cmpInts(xs []int64, c int64, dst []uint64, lt, eq, gt bool) {
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

// scanColumnar scans one columnar block into the partial: selection into
// a bitmap (skipped entirely when there is no predicate or the block's
// zones already proved it — allTrue), then a row-order pass that maintains
// the scan counters and stages each selected row on its group, then
// per-group batched aggregation. See the bit-identity contract at the top
// of the file.
func (pt *Partial) scanColumnar(p *Plan, in Input, d *colstore.Data, sc *colScratch, allTrue bool) {
	n := d.N
	if n == 0 {
		return
	}
	if allTrue && pt.scanColumnarAllRows(p, in, d, sc) {
		return
	}
	pt.RowsScanned += int64(n)

	// 1. Selection.
	if cap(sc.idxs) < n {
		sc.idxs = make([]int32, 0, n)
	}
	idxs := sc.idxs[:0]
	if allTrue {
		for i := 0; i < n; i++ {
			idxs = append(idxs, int32(i))
		}
	} else {
		sel := sc.bitmap(n)
		evalPred(p.Pred, d, sel, n, sc)
		for wi, w := range sel {
			base := int32(wi << 6)
			for w != 0 {
				idxs = append(idxs, base+int32(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	}
	if len(idxs) == 0 {
		return
	}

	// 2. Per-row pass in row order: sampling rate, scan counters, group
	// staging. With uniform block metadata the rate (and its reciprocal)
	// is computed once — the same value a per-row evaluation derives.
	uniform := d.Uniform()
	var urate, uinv float64
	if uniform {
		urate = 1.0
		if in.Rate != nil {
			urate = in.Rate(storage.RowMeta{Rate: d.UniformRate, StratumFreq: d.UniformFreq})
		}
		if urate > 0 {
			uinv = 1 / urate
		}
		if d.UniformFreq > pt.MaxMatchedStratumFreq {
			pt.MaxMatchedStratumFreq = d.UniformFreq
		}
	}

	// Group resolution mode for this block.
	var dictCol *colstore.Column
	var codeGS []*groupState
	var rleCol *colstore.Column
	rleRun := 0
	var rleGS *groupState
	if len(p.GroupBy) == 1 {
		switch c := &d.Cols[p.GroupBy[0]]; {
		case c.Enc == colstore.EncDict && c.Nulls == nil:
			dictCol = c
			if cap(sc.codeGS) < len(c.Dict) {
				sc.codeGS = make([]*groupState, len(c.Dict))
			}
			codeGS = sc.codeGS[:len(c.Dict)]
			for i := range codeGS {
				codeGS[i] = nil
			}
		case c.Enc == colstore.EncRLE:
			// Selected indices are ascending, so an advancing run cursor
			// resolves the group once per RUN instead of once per row —
			// the RLE payoff for GROUP BY stratification columns.
			rleCol = c
		}
	}
	if cap(sc.keybuf) < len(p.GroupBy) {
		sc.keybuf = make([]types.Value, len(p.GroupBy))
	}
	keybuf := sc.keybuf[:len(p.GroupBy)]
	var globalGS *groupState

	pt.RowsMatched += int64(len(idxs))
	// Even when block metadata varies, the derived rates often don't
	// (e.g. a base table whose stratum frequencies differ but whose rates
	// are all 1). Track that: constant rates let aggregation hoist the
	// weight math exactly as in the metadata-uniform case.
	ratesEqual := true
	firstRate := 0.0
	for ii, i32 := range idxs {
		i := int(i32)
		rate := urate
		if uniform {
			if rate > 0 {
				pt.WeightedMatched += uinv
			}
		} else {
			rate = 1.0
			if in.Rate != nil {
				rate = in.Rate(storage.RowMeta{Rate: d.RateAt(i), StratumFreq: d.FreqAt(i)})
			}
			if rate > 0 {
				pt.WeightedMatched += 1 / rate
			}
			if f := d.FreqAt(i); f > pt.MaxMatchedStratumFreq {
				pt.MaxMatchedStratumFreq = f
			}
			if ii == 0 {
				firstRate = rate
			} else if rate != firstRate {
				ratesEqual = false
			}
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
			code := dictCol.Codes[i]
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
				v := d.Cols[ci].Value(i)
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

	// 3. Batched per-group aggregation. Each group's rows are fed to its
	// accumulators in row order, so every Acc sees exactly the sequence a
	// row-at-a-time evaluation would produce. A block whose derived rates
	// turned out constant uses the hoisted-weight path with that shared
	// rate — the per-row weights are the same values either way.
	if !uniform && ratesEqual {
		uniform, urate = true, firstRate
	}
	for _, gs := range sc.touched {
		pt.accumulateBatch(p, d, gs, uniform, urate, sc)
		sc.putBatchBufs(gs.batchRows, gs.batchRates)
		gs.batchRows, gs.batchRates = nil, nil
	}
	sc.touched = sc.touched[:0]
	sc.idxs = idxs[:0]
}

// scanColumnarAllRows is the whole-block lane of the all-true zone state:
// every row is known to match (no predicate, or the zones imply it), so
// the block aggregates as contiguous group ranges without materializing a
// selection or staging per-row indices. It handles uniform-metadata blocks
// whose GROUP BY is empty or a single RLE column (group resolved once per
// run) and whose aggregated columns are null-free typed slices or RLE;
// anything else returns false and takes the generic path. Bit-identity
// holds because AddBatch is a sequential fold — splitting one group's rows
// into consecutive in-order AddBatch calls reproduces the exact operation
// stream the staged path performs.
func (pt *Partial) scanColumnarAllRows(p *Plan, in Input, d *colstore.Data, sc *colScratch) bool {
	n := d.N
	if !d.Uniform() {
		return false
	}
	var rleCol *colstore.Column
	if len(p.GroupBy) == 1 {
		c := &d.Cols[p.GroupBy[0]]
		if c.Enc != colstore.EncRLE {
			return false
		}
		rleCol = c
	} else if len(p.GroupBy) != 0 {
		return false
	}
	for ai := range p.Aggs {
		a := &p.Aggs[ai]
		if a.Col < 0 {
			continue
		}
		if c := &d.Cols[a.Col]; c.Enc == colstore.EncValue || c.Nulls != nil {
			return false
		}
	}

	pt.RowsScanned += int64(n)
	pt.RowsMatched += int64(n)
	urate := 1.0
	if in.Rate != nil {
		urate = in.Rate(storage.RowMeta{Rate: d.UniformRate, StratumFreq: d.UniformFreq})
	}
	if d.UniformFreq > pt.MaxMatchedStratumFreq {
		pt.MaxMatchedStratumFreq = d.UniformFreq
	}
	if urate > 0 {
		// Same add chain as the staged path: n sequential additions of the
		// shared reciprocal.
		uinv := 1 / urate
		wm := pt.WeightedMatched
		for j := 0; j < n; j++ {
			wm += uinv
		}
		pt.WeightedMatched = wm
	}

	emitRange := func(gs *groupState, lo, hi int) {
		m := hi - lo
		for ai := range p.Aggs {
			a := &p.Aggs[ai]
			acc := gs.accs[ai]
			if a.Col < 0 {
				acc.AddBatch(nil, nil, m, urate)
				continue
			}
			col := &d.Cols[a.Col]
			isCount := a.Kind == stats.AggCount
			switch col.Enc {
			case colstore.EncRLE:
				// Per-run: NULL runs drop out of this aggregate only, and a
				// non-null run contributes its constant value m2 times.
				run := col.RunOf(lo)
				for i := lo; i < hi; run++ {
					end := int(col.RunEnds[run])
					if end > hi {
						end = hi
					}
					if v := col.RunVals[run]; !v.IsNull() {
						m2 := end - i
						if isCount {
							acc.AddBatch(nil, nil, m2, urate)
						} else {
							xs := growFloats(&sc.xs, m2)
							x := v.AsFloat()
							for j := range xs {
								xs[j] = x
							}
							acc.AddBatch(xs, nil, m2, urate)
						}
					}
					i = end
				}
			case colstore.EncFloat:
				if isCount {
					acc.AddBatch(nil, nil, m, urate)
				} else {
					acc.AddBatch(col.Floats[lo:hi], nil, m, urate)
				}
			case colstore.EncInt, colstore.EncBool:
				if isCount {
					acc.AddBatch(nil, nil, m, urate)
				} else {
					xs := growFloats(&sc.xs, m)
					for j, v := range col.Ints[lo:hi] {
						xs[j] = float64(v)
					}
					acc.AddBatch(xs, nil, m, urate)
				}
			default: // EncDict: strings aggregate as 0 (Value.AsFloat)
				if isCount {
					acc.AddBatch(nil, nil, m, urate)
				} else {
					xs := growFloats(&sc.xs, m)
					for j := range xs {
						xs[j] = 0
					}
					acc.AddBatch(xs, nil, m, urate)
				}
			}
		}
	}

	if rleCol == nil {
		emitRange(pt.findGroupVals(p, nil, types.HashSeed), 0, n)
		return true
	}
	if cap(sc.keybuf) < 1 {
		sc.keybuf = make([]types.Value, 1)
	}
	keybuf := sc.keybuf[:1]
	for lo, run := 0, 0; lo < n; run++ {
		hi := int(rleCol.RunEnds[run])
		if hi > n {
			hi = n
		}
		v := rleCol.RunVals[run]
		keybuf[0] = v
		emitRange(pt.findGroupVals(p, keybuf, v.HashInto(types.HashSeed)), lo, hi)
		lo = hi
	}
	return true
}

// accumulateBatch feeds one group's staged rows through every aggregate.
func (pt *Partial) accumulateBatch(p *Plan, d *colstore.Data, gs *groupState, uniform bool, urate float64, sc *colScratch) {
	rows := gs.batchRows
	for ai := range p.Aggs {
		a := &p.Aggs[ai]
		acc := gs.accs[ai]
		if a.Col < 0 {
			// COUNT(*): every staged row contributes x = 1.
			if uniform {
				acc.AddBatch(nil, nil, len(rows), urate)
			} else {
				acc.AddBatch(nil, gs.batchRates, len(rows), 0)
			}
			continue
		}
		col := &d.Cols[a.Col]
		isCount := a.Kind == stats.AggCount

		if col.Enc == colstore.EncRLE {
			// Run-cursor gather: batch rows are ascending, so each run's
			// value (and NULL-ness) is resolved once. A NULL run drops its
			// rows from this aggregate only.
			xs := growFloats(&sc.xs, len(rows))[:0]
			var rs []float64
			if !uniform {
				rs = growFloats(&sc.rs, len(rows))[:0]
			}
			run := 0
			runNull := col.RunVals[0].IsNull()
			x := col.RunVals[0].AsFloat()
			for j, ri := range rows {
				for ri >= col.RunEnds[run] {
					run++
					runNull = col.RunVals[run].IsNull()
					x = col.RunVals[run].AsFloat()
				}
				if runNull {
					continue
				}
				xs = append(xs, x)
				if !uniform {
					rs = append(rs, gs.batchRates[j])
				}
			}
			if isCount {
				acc.AddBatch(nil, rs, len(xs), urate)
			} else {
				acc.AddBatch(xs, rs, len(xs), urate)
			}
			continue
		}

		// Fast path: no NULLs and rates already aligned with the batch.
		if col.Nulls == nil && col.Enc != colstore.EncValue {
			rates, ur := gs.batchRates, urate
			if uniform {
				rates = nil
			}
			if isCount {
				acc.AddBatch(nil, rates, len(rows), ur)
				continue
			}
			xs := growFloats(&sc.xs, len(rows))
			switch col.Enc {
			case colstore.EncFloat:
				src := col.Floats
				for j, ri := range rows {
					xs[j] = src[ri]
				}
			case colstore.EncInt, colstore.EncBool:
				src := col.Ints
				for j, ri := range rows {
					xs[j] = float64(src[ri])
				}
			default: // EncDict: strings aggregate as 0 (Value.AsFloat)
				for j := range rows {
					xs[j] = 0
				}
			}
			acc.AddBatch(xs, rates, len(rows), ur)
			continue
		}

		// NULL-skipping gather (SQL semantics: NULLs are ignored, and the
		// row drops out of this aggregate only).
		xs := growFloats(&sc.xs, len(rows))[:0]
		var rs []float64
		if !uniform {
			rs = growFloats(&sc.rs, len(rows))[:0]
		}
		for j, ri := range rows {
			i := int(ri)
			var x float64
			if col.Enc == colstore.EncValue {
				v := col.Values[i]
				if v.IsNull() {
					continue
				}
				x = v.AsFloat()
			} else {
				if col.IsNull(i) {
					continue
				}
				switch col.Enc {
				case colstore.EncFloat:
					x = col.Floats[i]
				case colstore.EncInt, colstore.EncBool:
					x = float64(col.Ints[i])
				default: // EncDict
					x = 0
				}
			}
			if isCount {
				x = 1
			}
			xs = append(xs, x)
			if !uniform {
				rs = append(rs, gs.batchRates[j])
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

// scanColumnarJoin is the late-materialization join scan: the fact-side
// predicate conjuncts are evaluated FIRST over the columnar block, join
// keys of surviving rows are probed straight out of the key columns, and
// only fact rows with at least one dimension match are materialised into
// the pooled buffer (sized once at plan time, joinRuntime.width; nothing
// downstream retains it — addMatched copies what it keeps). Expansion
// order, filter semantics and aggregation order are those of expanding
// every fact row and filtering the combined rows — rows that would be
// discarded after materialising (predicate miss or empty join) are skipped
// before paying for materialisation, which changes no emitted value.
func (pt *Partial) scanColumnarJoin(p *Plan, in Input, d *colstore.Data,
	sc *colScratch, jr *joinRuntime) {

	n := d.N
	pt.RowsScanned += int64(n)
	if n == 0 {
		return
	}

	// Fact-side selection: only the conjuncts that reference fact columns.
	// (Rows they reject can never produce a passing combined row, so
	// filtering before expansion is exact.)
	var sel []uint64
	if jr.factPred != nil {
		sel = sc.bitmap(n)
		evalPred(jr.factPred, d, sel, n, sc)
	}

	buf := sc.rowBuf(jr.width)
	factW := len(d.Cols)
	ix0 := jr.idxs[0]
	keyCol := &d.Cols[ix0.spec.LeftCol]
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
		rate = 1.0
		if in.Rate != nil {
			rate = in.Rate(storage.RowMeta{Rate: d.RateAt(i), StratumFreq: d.FreqAt(i)})
		}
		freq = d.FreqAt(i)
		d.RowInto(buf[:factW], i)
		for _, dimRow := range matches {
			copy(buf[factW:factW+len(dimRow)], dimRow)
			jr.expandInto(buf, factW+len(dimRow), 1, emit)
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			probe(i)
		}
		return
	}
	for wi, w := range sel {
		base := wi << 6
		for w != 0 {
			probe(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
