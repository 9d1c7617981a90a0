package storage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"blinkdb/internal/colstore"
	"blinkdb/internal/types"
)

// sameValue is struct equality with floats compared by bit pattern: a zone
// pinned at NaN must match as NaN, and −0 is not +0.
func sameValue(a, b types.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestZonesMatchExtendFold pins what keeps pruning — and so every rows-
// scanned count — where it was: the zones cut reads off a chunk's
// typed columns equal the row-order fold of Zone.Extend over the same
// rows, and the bytes equal the rows' EstimateRowBytes, for every window
// of chunks built to hit each encoding and each way the fold can surprise:
// a leading NaN (pins the bracket), NaN behind a NULL, NULL-bearing and
// all-NULL windows, ±0 ties, a column that mixes kinds, runs, and
// single-row blocks.
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
		rows[i] = types.Row{
			f, nullThenNaN, in, types.Bool(rng.Intn(3) == 0), s, mix,
			types.Str(fmt.Sprintf("stratum%d", i/45)), // long runs: RLE
			types.Value(types.Int(int64(i / 30))),     // RLE over ints, with a float run below
		}
		if i/30 == 4 {
			rows[i][7] = types.Float(4)
		}
	}
	b := colstore.NewBuilder(8)
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
	for _, size := range []int{1, 2, 7, 64, 100, n} {
		for _, blk := range cut(d, size, 3) {
			off := blk.Off
			want := make([]Zone, len(d.Cols))
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
				if z.Valid != want[ci].Valid || !sameValue(z.Min, want[ci].Min) || !sameValue(z.Max, want[ci].Max) {
					t.Fatalf("rows [%d,%d) column %d (%v): zone %+v, the Extend fold gives %+v",
						off, off+blk.N, ci, d.Cols[ci].Enc, z, want[ci])
				}
			}
		}
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
