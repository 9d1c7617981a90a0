package storage

import (
	"math"
	"sort"

	"blinkdb/internal/colstore"
	"blinkdb/internal/types"
)

// cut computes the priced blocks of one chunk: its rowsPerBlock-row
// windows (the last may be short). See Cut.
func cut(d *colstore.Data, rowsPerBlock, workers int) []Block {
	ends := make([]int, 0, (d.N+rowsPerBlock-1)/rowsPerBlock)
	for end := rowsPerBlock; ; end += rowsPerBlock {
		if end >= d.N {
			ends = append(ends, d.N)
			break
		}
		ends = append(ends, end)
	}
	return Cut(d, ends, workers)
}

// Cut returns the priced blocks of chunk d whose windows end at ends
// (ascending, the last d.N), each with its zones and byte size, read from
// the chunk's typed columns a column at a time, the columns fanned out
// over up to workers goroutines. A block's size is the sum of its
// columns' int64 parts, the same in any order. The blocks and their zones
// are allocated as two arrays: a scan classifies every block of its range
// before it reads a row, and walks them in this order. Node and Place are
// left to the caller.
//
// A zone is DEFINED as the row-order fold, under types.Compare, of the
// window's values, NULLs included (zoneMayMatch and zoneImpliesPred in
// internal/exec reason about exactly that bracket): the first value is
// both ends, and a later one replaces Min only when strictly smaller and
// Max only when strictly larger. An RLE column folds its runs' values and
// a value stream its rows', keeping their indices (the payloads). The
// typed passes are shortcuts to the same bracket: for a column of one
// kind types.Compare is the machine comparison — so a strict </> loop
// keeps the same first-seen value on ties (−0 before +0) and is pinned by
// a leading NaN exactly as the fold is — and NULL, ranked below
// everything, becomes Min wherever it appears and never Max unless the
// window holds nothing else.
func Cut(d *colstore.Data, ends []int, workers int) []Block {
	width, nb := len(d.Cols), len(ends)
	out := make([]Block, nb)
	zones := make([]Zone, nb*width)
	parts := make([]int64, nb*width) // block i's bytes in column ci at [ci*nb+i]
	colstore.ParallelFor(width, workers, func(ci int) {
		col := &d.Cols[ci]
		var rank []uint32
		var size []int64
		if col.Enc == colstore.EncDict {
			rank, size = dictOrder(col.Dict)
		}
		off := 0
		for i, end := range ends {
			zones[i*width+ci], parts[ci*nb+i] = column(col, off, end, rank, size)
			off = end
		}
	})
	off := 0
	for i, end := range ends {
		out[i] = Block{Chunk: d, Off: off, N: end - off, Zones: zones[i*width : (i+1)*width : (i+1)*width]}
		for ci := 0; ci < width; ci++ {
			out[i].Bytes += parts[ci*nb+i]
		}
		off = end
	}
	return out
}

// column returns col's zone over rows [lo, hi), which hold at least one
// row, and the rows' serialized size in it (see EstimateRowBytes). A
// dictionary column's rank and size are dictOrder's.
func column(col *colstore.Column, lo, hi int, rank []uint32, size []int64) (Zone, int64) {
	n := hi - lo
	var bytes int64
	switch col.Enc {
	case colstore.EncRLE:
		first := col.RunOf(lo)
		mn, mx := first, first
		for i, run := lo, first; i < hi; run++ {
			end := min(int(col.RunEnds[run]), hi)
			mn, mx = fold(col.RunVals, run, mn, mx)
			bytes += int64(end-i) * valueBytes(col.RunVals[run])
			i = end
		}
		return valueZone(col.RunVals, mn, mx), bytes
	case colstore.EncValue:
		mn, mx := lo, lo
		for i := lo; i < hi; i++ {
			mn, mx = fold(col.Values, i, mn, mx)
			bytes += valueBytes(col.Values[i])
		}
		return valueZone(col.Values, mn, mx), bytes
	}

	nulls := colstore.CountBits(col.Nulls, lo, hi)
	if nulls == n {
		return Zone{Null: MinNull | MaxNull}, int64(n)
	}
	isNull := func(i int) bool { return col.Nulls[i>>6]&(1<<uint(i&63)) != 0 }
	first := lo // first non-NULL row
	for nulls > 0 && isNull(first) {
		first++
	}
	nullBits := col.Nulls
	if nulls == 0 {
		nullBits = nil
	}
	var z Zone
	switch col.Enc {
	case colstore.EncFloat:
		mn, mx := colstore.Bounds(col.Floats, nullBits, first, hi)
		z.Lo, z.Hi = math.Float64bits(mn), math.Float64bits(mx)
		bytes += 8*int64(n-nulls) + int64(nulls)
	case colstore.EncInt, colstore.EncBool:
		var mn, mx int64
		if col.Narrow() {
			omn, omx := colstore.Bounds(col.Offs, nullBits, first, hi)
			mn, mx = col.Base+int64(omn), col.Base+int64(omx)
		} else {
			mn, mx = colstore.Bounds(col.Ints, nullBits, first, hi)
		}
		z.Lo, z.Hi = uint64(mn), uint64(mx)
		// Bytes are logical, as the rows were appended: 8 per int, in
		// either form.
		if col.Enc == colstore.EncInt {
			bytes += 8*int64(n-nulls) + int64(nulls)
		} else {
			bytes += int64(n)
		}
	default: // EncDict
		var mn, mx int
		var strBytes int64
		if col.Codes8 != nil {
			mn, mx, strBytes = dictZone(col.Codes8, rank, size, nullBits, first, hi)
		} else {
			mn, mx, strBytes = dictZone(col.Codes16, rank, size, nullBits, first, hi)
		}
		bytes += int64(nulls) + strBytes
		z.Lo, z.Hi = uint64(mn), uint64(mx)
	}
	if nulls > 0 {
		z.Lo, z.Null = 0, MinNull
	}
	return z, bytes
}

// fold is one step of the zone fold over vals: the indices of the
// bracket's ends after vals[i].
func fold(vals []types.Value, i, mn, mx int) (int, int) {
	if types.Compare(vals[i], vals[mn]) < 0 {
		mn = i
	}
	if types.Compare(vals[i], vals[mx]) > 0 {
		mx = i
	}
	return mn, mx
}

// valueZone is the zone of an RLE or value-stream bracket whose ends are
// vals[mn] and vals[mx].
func valueZone(vals []types.Value, mn, mx int) Zone {
	z := Zone{Lo: uint64(mn), Hi: uint64(mx)}
	if vals[mn].IsNull() {
		z.Null |= MinNull
	}
	if vals[mx].IsNull() {
		z.Null |= MaxNull
	}
	return z
}

// dictZone returns the codes of the smallest and largest string of
// codes[first:hi] in rank order, skipping the rows nulls marks (nil: none),
// and the strings' serialized size; row first is not NULL.
func dictZone[C colstore.Code](codes []C, rank []uint32, size []int64, nulls []uint64, first, hi int) (mn, mx int, bytes int64) {
	lo, up := codes[first], codes[first]
	for i := first; i < hi; i++ {
		if nulls != nil && nulls[i>>6]&(1<<uint(i&63)) != 0 {
			continue
		}
		code := codes[i]
		bytes += size[code]
		if rank[code] < rank[lo] {
			lo = code
		} else if rank[code] > rank[up] {
			up = code
		}
	}
	return int(lo), int(up), bytes
}

// dictOrder returns each dictionary entry's position in string order and
// its serialized size, indexed by code: a block's string bracket is then an
// integer min/max over its codes.
func dictOrder(dict []string) (rank []uint32, size []int64) {
	order := make([]uint32, len(dict))
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool { return dict[order[i]] < dict[order[j]] })
	rank, size = make([]uint32, len(dict)), make([]int64, len(dict))
	for r, code := range order {
		rank[code] = uint32(r)
		size[code] = int64(len(dict[code])) + 2
	}
	return rank, size
}
