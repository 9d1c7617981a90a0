package storage

import (
	"sort"

	"blinkdb/internal/colstore"
	"blinkdb/internal/types"
)

// cut computes the priced blocks of one chunk: its rowsPerBlock-row
// windows (the last may be short), each with its zones and byte size, read
// from the chunk's typed columns a column at a time, the columns fanned out
// over up to workers goroutines. A block's size is the sum of its columns'
// int64 parts, the same in any order. The blocks and their zones are
// allocated as two arrays: a scan classifies every block of its range
// before it reads a row, and walks them in this order.
//
// A zone is DEFINED as the row-order fold of Zone.Extend over the window's
// values, NULLs included (leafImplied and zoneMayMatch in internal/exec
// reason about exactly that bracket). The typed passes below are shortcuts
// to the same bracket: Extend replaces Min only on a strictly smaller
// value and Max only on a strictly larger one under types.Compare, which
// for a column of one kind is the machine comparison — so a strict </>
// loop keeps the same first-seen value on ties (−0 before +0) and is
// pinned by a leading NaN exactly as the fold is — and NULL, ranked below
// everything, becomes Min wherever it appears and never Max unless the
// window holds nothing else.
func cut(d *colstore.Data, rowsPerBlock, workers int) []Block {
	width, nb := len(d.Cols), (d.N+rowsPerBlock-1)/rowsPerBlock
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
		for i := 0; i < nb; i++ {
			off := i * rowsPerBlock
			zones[i*width+ci], parts[ci*nb+i] = column(col, off, min(off+rowsPerBlock, d.N), rank, size)
		}
	})
	for i := range out {
		off := i * rowsPerBlock
		out[i] = Block{Chunk: d, Off: off, N: min(rowsPerBlock, d.N-off), Zones: zones[i*width : (i+1)*width : (i+1)*width]}
		for ci := 0; ci < width; ci++ {
			out[i].Bytes += parts[ci*nb+i]
		}
	}
	return out
}

// column returns col's zone over rows [lo, hi) and the rows' serialized
// size in it (see EstimateRowBytes). A dictionary column's rank and size
// are dictOrder's.
func column(col *colstore.Column, lo, hi int, rank []uint32, size []int64) (Zone, int64) {
	n := hi - lo
	var z Zone
	var bytes int64
	switch col.Enc {
	case colstore.EncRLE:
		for i, run := lo, col.RunOf(lo); i < hi; run++ {
			end := min(int(col.RunEnds[run]), hi)
			z.Extend(col.RunVals[run])
			bytes += int64(end-i) * valueBytes(col.RunVals[run])
			i = end
		}
		return z, bytes
	case colstore.EncValue:
		for _, v := range col.Values[lo:hi] {
			z.Extend(v)
			bytes += valueBytes(v)
		}
		return z, bytes
	}

	z.Valid = true
	nulls := colstore.CountBits(col.Nulls, lo, hi)
	if nulls == n {
		return z, int64(n) // Min = Max = NULL
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
	switch col.Enc {
	case colstore.EncFloat:
		mn, mx := colstore.Bounds(col.Floats, nullBits, first, hi)
		z.Min, z.Max = types.Float(mn), types.Float(mx)
		bytes += 8*int64(n-nulls) + int64(nulls)
	case colstore.EncInt, colstore.EncBool:
		var mn, mx int64
		if col.Narrow() {
			omn, omx := colstore.Bounds(col.Offs, nullBits, first, hi)
			mn, mx = col.Base+int64(omn), col.Base+int64(omx)
		} else {
			mn, mx = colstore.Bounds(col.Ints, nullBits, first, hi)
		}
		// Bytes are logical, as the rows were appended: 8 per int, in
		// either form.
		if col.Enc == colstore.EncInt {
			z.Min, z.Max = types.Int(mn), types.Int(mx)
			bytes += 8*int64(n-nulls) + int64(nulls)
		} else {
			z.Min, z.Max = types.Value{Kind: types.KindBool, I: mn}, types.Value{Kind: types.KindBool, I: mx}
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
		z.Min, z.Max = types.Str(col.Dict[mn]), types.Str(col.Dict[mx])
	}
	if nulls > 0 {
		z.Min = types.Null()
	}
	return z, bytes
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
