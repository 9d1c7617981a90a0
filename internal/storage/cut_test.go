package storage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"blinkdb/internal/colstore"
	"blinkdb/internal/types"
)

// sameValue is struct equality with floats compared by bit pattern: a zone
// pinned at NaN must match as NaN, and −0 is not +0.
func sameValue(a, b types.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// foldZone is the reference bracket of a window: the row-order fold of
// Extend over its values, NULLs included, that cut's zones must decode to.
type foldZone struct {
	Min, Max types.Value
	// Valid is false until the first value.
	Valid bool
}

// Extend widens the bracket to include v: it replaces Min only by a
// strictly smaller value and Max only by a strictly larger one, under
// types.Compare.
func (z *foldZone) Extend(v types.Value) {
	if !z.Valid {
		z.Min, z.Max, z.Valid = v, v, true
		return
	}
	if types.Compare(v, z.Min) < 0 {
		z.Min = v
	}
	if types.Compare(v, z.Max) > 0 {
		z.Max = v
	}
}

// TestZonesMatchExtendFold pins what keeps pruning — and so every rows-
// scanned count — where it was: the zones cut reads off a chunk's
// typed columns decode (ZoneAt) to the row-order fold of Extend over the
// same rows, payload bits included, and the bytes equal the rows'
// EstimateRowBytes, for every window of chunks built to hit each encoding
// and form (1- and 2-byte dictionary codes, narrow and wide ints) and each
// way the fold can surprise: a leading NaN (pins the bracket), NaN behind
// a NULL, windows that start or end with a NULL or hold nothing else, ±0
// ties, a column that mixes kinds, runs, and single-row blocks.
func TestZonesMatchExtendFold(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(7))
	const n = 400
	rows := make([]types.Row, n)
	for i := range rows {
		f := types.Float(float64(rng.Intn(50)) - 25)
		switch {
		case i%64 == 0:
			f = types.Float(nan) // leads every 64-row window
		case i%64 == 33:
			f = types.Null()
		case i%17 == 3:
			f = types.Float(negZero)
		case i%17 == 4:
			f = types.Float(0)
		case i >= 128 && i < 192:
			f = types.Null() // an all-NULL stretch
		}
		nullThenNaN := types.Float(float64(i))
		switch i % 8 {
		case 0:
			nullThenNaN = types.Null()
		case 1:
			nullThenNaN = types.Float(nan)
		}
		in := types.Int(int64(rng.Intn(1000) - 500))
		if i%29 == 0 {
			in = types.Null()
		}
		// Wide ints, NULL at the start and the end of every 64-row window
		// and over a stretch of them.
		wide := types.Int(rng.Int63n(1<<40) - 1<<39)
		if i%64 == 0 || i%64 == 63 || (i >= 256 && i < 320) {
			wide = types.Null()
		}
		mix := types.Value(types.Int(int64(i % 9)))
		switch i % 5 {
		case 1:
			mix = types.Float(float64(i%9) + 0.5)
		case 2:
			mix = types.Str(fmt.Sprintf("m%d", i%4))
		case 3:
			mix = types.Null()
		}
		s := types.Str(fmt.Sprintf("city%02d", rng.Intn(40)))
		if i%41 == 0 {
			s = types.Null()
		}
		words := types.Str(fmt.Sprintf("w%03d", i*7919%1000)) // 2-byte codes
		if i%64 == 63 || (i >= 64 && i < 128) {
			words = types.Null()
		}
		rows[i] = types.Row{
			f, nullThenNaN, in, types.Bool(rng.Intn(3) == 0), s, mix,
			types.Str(fmt.Sprintf("stratum%d", i/45)), // long runs: RLE
			types.Value(types.Int(int64(i / 30))),     // RLE over ints, with a float run below
			wide, words,
		}
		if i/30 == 4 {
			rows[i][7] = types.Float(4)
		}
		if i/45 == 2 {
			rows[i][6] = types.Null() // a NULL run
		}
	}
	b := colstore.NewBuilder(len(rows[0]))
	for _, r := range rows {
		b.Append(r, 1, 0)
	}
	d := b.Finish()
	seen := map[colstore.Encoding]bool{}
	for ci := range d.Cols {
		seen[d.Cols[ci].Enc] = true
	}
	for _, enc := range []colstore.Encoding{colstore.EncFloat, colstore.EncInt, colstore.EncBool,
		colstore.EncDict, colstore.EncValue, colstore.EncRLE} {
		if !seen[enc] {
			t.Fatalf("the chunk never produced encoding %v", enc)
		}
	}
	if !d.Cols[2].Narrow() || d.Cols[8].Narrow() || d.Cols[4].Codes8 == nil || d.Cols[9].Codes16 == nil {
		t.Fatal("the chunk lacks a narrow or a wide int column, or 1- or 2-byte codes")
	}
	for _, size := range []int{1, 2, 7, 64, 100, n} {
		for _, blk := range cut(d, size, 3) {
			off := blk.Off
			want := make([]foldZone, len(d.Cols))
			var bytes int64
			for _, r := range rows[off : off+blk.N] {
				for ci, v := range r {
					want[ci].Extend(v)
				}
				bytes += EstimateRowBytes(r)
			}
			if blk.Bytes != bytes {
				t.Fatalf("rows [%d,%d): %d bytes, the rows estimate %d", off, off+blk.N, blk.Bytes, bytes)
			}
			for ci, z := range blk.Zones {
				zmin, zmax, ok := blk.ZoneAt(ci)
				if !ok || !sameValue(zmin, want[ci].Min) || !sameValue(zmax, want[ci].Max) {
					t.Fatalf("rows [%d,%d) column %d (%v): zone [%v, %v], the Extend fold gives [%v, %v]",
						off, off+blk.N, ci, d.Cols[ci].Enc, zmin, zmax, want[ci].Min, want[ci].Max)
				}
				if (z.Null&MinNull != 0) != zmin.IsNull() || (z.Null&MaxNull != 0) != zmax.IsNull() {
					t.Fatalf("rows [%d,%d) column %d (%v): NULL flags %b for the zone [%v, %v]",
						off, off+blk.N, ci, d.Cols[ci].Enc, z.Null, zmin, zmax)
				}
			}
		}
	}
}

// TestZoneSize pins the zone at 24 bytes: two payload words and the NULL
// flags. It is most of a priced block's metadata, a zone a column.
func TestZoneSize(t *testing.T) {
	if size := unsafe.Sizeof(Zone{}); size != 24 {
		t.Errorf("a Zone is %d bytes, want 24", size)
	}
}

// TestFinishedChunksCarryNoSlack pins the trim that keeps append-doubling
// out of the resident set: every slice of a finished chunk is exactly as
// long as its contents, whether the chunk closed full or short.
func TestFinishedChunksCarryNoSlack(t *testing.T) {
	tab := buildMixedTable(t, chunkRows+chunkRows/3, 300, 4)
	chunks := tab.Chunks()
	if len(chunks) != 2 {
		t.Fatalf("%d chunks, want a full one and a short one", len(chunks))
	}
	for i, d := range chunks {
		check := func(what string, length, capacity int) {
			if length != capacity {
				t.Errorf("chunk %d %s: len %d, cap %d", i, what, length, capacity)
			}
		}
		check("meta ends", len(d.MetaEnds), cap(d.MetaEnds))
		check("rates", len(d.Rates), cap(d.Rates))
		check("freqs", len(d.Freqs), cap(d.Freqs))
		for ci := range d.Cols {
			c := &d.Cols[ci]
			check(fmt.Sprintf("col %d floats", ci), len(c.Floats), cap(c.Floats))
			check(fmt.Sprintf("col %d ints", ci), len(c.Ints), cap(c.Ints))
			check(fmt.Sprintf("col %d 1-byte codes", ci), len(c.Codes8), cap(c.Codes8))
			check(fmt.Sprintf("col %d 2-byte codes", ci), len(c.Codes16), cap(c.Codes16))
			check(fmt.Sprintf("col %d dict", ci), len(c.Dict), cap(c.Dict))
			check(fmt.Sprintf("col %d values", ci), len(c.Values), cap(c.Values))
			check(fmt.Sprintf("col %d nulls", ci), len(c.Nulls), cap(c.Nulls))
			check(fmt.Sprintf("col %d run values", ci), len(c.RunVals), cap(c.RunVals))
			check(fmt.Sprintf("col %d run ends", ci), len(c.RunEnds), cap(c.RunEnds))
		}
	}
}

// TestChunksHoldWholeBlocks pins the physical layout: a chunk closes on
// the last block boundary at or under chunkRows, a block larger than that
// is a chunk of its own, and Table.Chunks lists them in order.
func TestChunksHoldWholeBlocks(t *testing.T) {
	for _, tc := range []struct{ rows, perBlock, chunks, firstChunkRows int }{
		{3 * chunkRows, 308, 4, chunkRows / 308 * 308},
		{3 * chunkRows, 8192, 3, chunkRows},
		{chunkRows + 10, chunkRows + 5, 2, chunkRows + 5},
		{100, 3, 1, 100},
	} {
		tab := buildTable(t, tc.rows, tc.perBlock, 3)
		chunks := tab.Chunks()
		if len(chunks) != tc.chunks || chunks[0].N != tc.firstChunkRows {
			t.Errorf("%d rows at %d per block: %d chunks, first holds %d rows; want %d and %d",
				tc.rows, tc.perBlock, len(chunks), chunks[0].N, tc.chunks, tc.firstChunkRows)
		}
		if want := (tc.rows + tc.perBlock - 1) / tc.perBlock; len(tab.Blocks) != want {
			t.Errorf("%d rows at %d per block: %d blocks, want %d", tc.rows, tc.perBlock, len(tab.Blocks), want)
		}
	}
}
