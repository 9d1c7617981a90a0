package stats

import (
	"math/bits"

	"blinkdb/internal/colstore"
	"blinkdb/internal/cpu"
)

// The fold kernels: how a scan adds a column's selected rows to an
// accumulator's lanes. Rows come as a range [lo, hi), as a list of row
// numbers, or as a selection bitmap over a range — bit j of bm is row
// base+j, with base a multiple of 64, so a bitmap word covers 64 rows that
// start in lane 0. Each form adds exactly what AddRow would, row by row:
// the lane is the row number mod Lanes and the square is rounded before it
// is added (float64(x*x): the Go spec forbids fusing an explicitly
// converted product into the add, which arm64 would otherwise do).
//
// On amd64 the bitmap forms have AVX2 kernels over whole bitmap words
// (fold_amd64.s), run when cpu.AVX2 is set: four rows at a time, the
// selection applied by VANDPD with a per-nibble mask — an unselected row
// adds +0.0, which leaves a lane as it was, because a lane sum that starts
// at +0.0 is never −0.0 — then VADDPD, VMULPD, VADDPD and never a fused
// multiply-add. The Go loops are the path everywhere else, and the
// reference the assembly is held to, bit for bit.

// Number is the element type of a column the fold kernels read in place.
type Number interface{ ~int64 | ~float64 }

// AddRange records rows [lo, hi) of the column src, of key k, as AddRow
// would one at a time.
func AddRange[T Number](a *Acc, src []T, lo, hi int, k Key) {
	if lo >= hi {
		return
	}
	c := a.class(k)
	c.N += int64(hi - lo)
	if a.kind == AggCount {
		return
	}
	foldRange(&c.Moments, src, lo, hi)
	if a.kind.NeedsValues() {
		for _, v := range src[lo:hi] {
			a.vals = append(a.vals, keyedVal{float64(v), k})
		}
	}
}

// foldRange adds rows [lo, hi) of src to m. Between the lane-aligned ends
// the four lanes of both moments are eight independent chains the compiler
// keeps in registers.
func foldRange[T Number](m *Moments, src []T, lo, hi int) {
	r := lo
	for ; r < hi && r&(Lanes-1) != 0; r++ {
		m.add(float64(src[r]), r)
	}
	s0, s1, s2, s3 := m.SumX[0], m.SumX[1], m.SumX[2], m.SumX[3]
	q0, q1, q2, q3 := m.SumXX[0], m.SumXX[1], m.SumXX[2], m.SumXX[3]
	for ; r+Lanes <= hi; r += Lanes {
		v := src[r : r+Lanes : r+Lanes]
		x0, x1, x2, x3 := float64(v[0]), float64(v[1]), float64(v[2]), float64(v[3])
		s0 += x0
		s1 += x1
		s2 += x2
		s3 += x3
		q0 += float64(x0 * x0)
		q1 += float64(x1 * x1)
		q2 += float64(x2 * x2)
		q3 += float64(x3 * x3)
	}
	m.SumX = [Lanes]float64{s0, s1, s2, s3}
	m.SumXX = [Lanes]float64{q0, q1, q2, q3}
	for ; r < hi; r++ {
		m.add(float64(src[r]), r)
	}
}

// AddIndexed records rows idxs (ascending) of the column src, of key k, as
// AddRow would one at a time.
func AddIndexed[T Number](a *Acc, src []T, idxs []int32, k Key) {
	if len(idxs) == 0 {
		return
	}
	c := a.class(k)
	c.N += int64(len(idxs))
	if a.kind == AggCount {
		return
	}
	m := &c.Moments
	for _, i := range idxs {
		m.add(float64(src[i]), int(i))
	}
	if a.kind.NeedsValues() {
		for _, i := range idxs {
			a.vals = append(a.vals, keyedVal{float64(src[i]), k})
		}
	}
}

// AddValues records xs[j] as row rows[j] (ascending), of key k, as AddRow
// would one at a time: a gather that skipped NULLs hands its values over
// this way.
func AddValues(a *Acc, xs []float64, rows []int32, k Key) {
	if len(xs) == 0 {
		return
	}
	c := a.class(k)
	c.N += int64(len(xs))
	if a.kind == AggCount {
		return
	}
	for j, x := range xs {
		c.add(x, int(rows[j]))
	}
	if a.kind.NeedsValues() {
		for _, x := range xs {
			a.vals = append(a.vals, keyedVal{x, k})
		}
	}
}

// AddMasked records the n rows of [lo, hi) that bm selects (bit j is row
// base+j) of the column src, of key k, as AddRow would one at a time.
func AddMasked(a *Acc, src []float64, bm []uint64, base, lo, hi, n int, k Key) {
	if n == 0 {
		return
	}
	c := a.class(k)
	c.N += int64(n)
	if a.kind == AggCount {
		return
	}
	foldMasked(&c.Moments, src, bm, base, lo, hi)
	if a.kind.NeedsValues() {
		eachSelected(bm, base, lo, hi, func(r int) { a.vals = append(a.vals, keyedVal{src[r], k}) })
	}
}

// FoldByCode adds rows idxs of the column src to the moments their
// dictionary codes select — slots[codes[i]] gains src[i] in lane i mod
// Lanes — in idxs order, so each slot sees its rows in the order AddRow
// would. The slots come from Acc.Slot, which has counted the rows.
func FoldByCode[C colstore.Code, T Number](slots []*Moments, codes []C, src []T, idxs []int32) {
	for _, i := range idxs {
		slots[codes[i]].add(float64(src[i]), int(i))
	}
}

// FoldCodeMasked adds to m the rows of [lo, hi) that bm selects (bit j is
// row base+j) and whose dictionary code is c: one group's rows of a
// single-column GROUP BY, in row order. m comes from Acc.Slot, which has
// counted the rows (CountCodeMasked). The codes are 1-byte: a dictionary
// small enough to fold per code always has them (colstore.MaxDict8).
func FoldCodeMasked(m *Moments, src []float64, codes []uint8, c uint8, bm []uint64, base, lo, hi int) {
	if cpu.AVX2 {
		if w0, w1 := wholeWords(base, lo, hi); w0 < w1 {
			from, to := base+w0<<6, base+w1<<6
			foldCodeMaskedGo(m, src, codes, c, bm, base, lo, from)
			foldCodeMaskedAVX2(src[from:to], codes[from:to], c, bm[w0:w1], &m.SumX, &m.SumXX)
			lo = to
		}
	}
	foldCodeMaskedGo(m, src, codes, c, bm, base, lo, hi)
}

// CountCodeMasked returns how many rows of [lo, hi) bm selects (bit j is
// row base+j) whose dictionary code is c.
func CountCodeMasked(codes []uint8, c uint8, bm []uint64, base, lo, hi int) int {
	n := 0
	if cpu.AVX2 {
		if w0, w1 := wholeWords(base, lo, hi); w0 < w1 {
			from, to := base+w0<<6, base+w1<<6
			n = countCodeGo(codes, c, bm, base, lo, from) + countCodeAVX2(codes[from:to], c, bm[w0:w1])
			lo = to
		}
	}
	return n + countCodeGo(codes, c, bm, base, lo, hi)
}

// foldMasked adds the rows of [lo, hi) that bm selects to m.
func foldMasked(m *Moments, src []float64, bm []uint64, base, lo, hi int) {
	if cpu.AVX2 {
		if w0, w1 := wholeWords(base, lo, hi); w0 < w1 {
			from, to := base+w0<<6, base+w1<<6
			foldMaskedGo(m, src, bm, base, lo, from)
			foldMaskedAVX2(src[from:to], bm[w0:w1], &m.SumX, &m.SumXX)
			lo = to
		}
	}
	foldMaskedGo(m, src, bm, base, lo, hi)
}

// wholeWords returns the bitmap words [w0, w1) that lie inside rows
// [lo, hi): what the AVX2 kernels take, the Go loops folding the rows on
// either side.
func wholeWords(base, lo, hi int) (w0, w1 int) {
	return (lo - base + 63) >> 6, (hi - base) >> 6
}

// eachSelected calls f with every row of [lo, hi) that bm selects (bit j
// is row base+j), ascending.
func eachSelected(bm []uint64, base, lo, hi int, f func(r int)) {
	for r := lo; r < hi; {
		w, end := selWord(bm, base, r, hi)
		for ; w != 0; w &= w - 1 {
			f(r + bits.TrailingZeros64(w))
		}
		r = end
	}
}

// selWord returns the selection bits of rows [r, end) — bit i is row r+i —
// where end is hi or the end of r's bitmap word, whichever comes first.
func selWord(bm []uint64, base, r, hi int) (w uint64, end int) {
	off := r - base
	end = min(hi, r-off&63+64)
	// A shift by 64 is 0 in Go, so a full word keeps every bit.
	return bm[off>>6] >> uint(off&63) & (1<<uint(end-r) - 1), end
}

// foldMaskedGo is foldMasked's portable kernel, and its reference.
func foldMaskedGo(m *Moments, src []float64, bm []uint64, base, lo, hi int) {
	for r := lo; r < hi; {
		w, end := selWord(bm, base, r, hi)
		for ; w != 0; w &= w - 1 {
			i := r + bits.TrailingZeros64(w)
			m.add(src[i], i)
		}
		r = end
	}
}

// foldCodeMaskedGo is FoldCodeMasked's portable kernel, and its reference.
func foldCodeMaskedGo(m *Moments, src []float64, codes []uint8, c uint8, bm []uint64, base, lo, hi int) {
	for r := lo; r < hi; {
		w, end := selWord(bm, base, r, hi)
		for ; w != 0; w &= w - 1 {
			if i := r + bits.TrailingZeros64(w); codes[i] == c {
				m.add(src[i], i)
			}
		}
		r = end
	}
}

// countCodeGo is CountCodeMasked's portable kernel, and its reference.
func countCodeGo(codes []uint8, c uint8, bm []uint64, base, lo, hi int) int {
	n := 0
	for r := lo; r < hi; {
		w, end := selWord(bm, base, r, hi)
		for ; w != 0; w &= w - 1 {
			if codes[r+bits.TrailingZeros64(w)] == c {
				n++
			}
		}
		r = end
	}
	return n
}
