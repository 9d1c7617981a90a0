package storage

import (
	"sort"

	"blinkdb/internal/colstore"
	"blinkdb/internal/types"
)

// cutter computes the metadata of the priced blocks cut from one chunk:
// each window's zones and byte size, read from the chunk's typed columns.
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
type cutter struct {
	d *colstore.Data
	// ranks[c][code] is the position of dictionary entry code in string
	// order, built on first use: a block's string bracket is then an
	// integer min/max over its codes.
	ranks [][]uint32
	// strBytes[c][code] is the entry's serialized size.
	strBytes [][]int64
}

// blocks cuts the chunk into rowsPerBlock-row blocks (the last may be
// short). The blocks and their zones are allocated as two arrays: a scan
// classifies every block of its range before it reads a row, and walks
// them in this order.
func (c *cutter) blocks(rowsPerBlock int) []Block {
	width := len(c.d.Cols)
	out := make([]Block, (c.d.N+rowsPerBlock-1)/rowsPerBlock)
	zones := make([]Zone, len(out)*width)
	for i := range out {
		off := i * rowsPerBlock
		out[i] = c.block(off, min(rowsPerBlock, c.d.N-off), zones[i*width:(i+1)*width:(i+1)*width])
	}
	return out
}

// block cuts rows [off, off+n) of the chunk, n > 0, writing its zones
// into zones (one per column).
func (c *cutter) block(off, n int, zones []Zone) Block {
	b := Block{Chunk: c.d, Off: off, N: n, Zones: zones}
	for ci := range c.d.Cols {
		b.Zones[ci], b.Bytes = c.column(ci, off, off+n, b.Bytes)
	}
	return b
}

// column returns column ci's zone over rows [lo, hi) and bytes plus the
// rows' serialized size in that column (see EstimateRowBytes).
func (c *cutter) column(ci, lo, hi int, bytes int64) (Zone, int64) {
	col := &c.d.Cols[ci]
	n := hi - lo
	var z Zone
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
		return z, bytes + int64(n) // Min = Max = NULL
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
		rank, size := c.dict(ci)
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

// dict returns column ci's per-code string rank and serialized size.
func (c *cutter) dict(ci int) (rank []uint32, size []int64) {
	if c.ranks == nil {
		c.ranks = make([][]uint32, len(c.d.Cols))
		c.strBytes = make([][]int64, len(c.d.Cols))
	}
	if c.ranks[ci] == nil {
		dict := c.d.Cols[ci].Dict
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
		c.ranks[ci], c.strBytes[ci] = rank, size
	}
	return c.ranks[ci], c.strBytes[ci]
}
