package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// zoneTable returns rows over every zone encoding the executor checks:
// dictionary strings with NULLs, the empty string and an all-NULL
// stretch, run-length strings with a NULL run, runs that mix strings and
// ints, narrow ints, wide ints at ±2^53, floats with and without a NaN in
// the chunk, bools and a value stream of mixed kinds.
func zoneTable(rowsPerBlock int) *storage.Table {
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "grp", Kind: types.KindString},
		types.Column{Name: "phase", Kind: types.KindString},
		types.Column{Name: "dt", Kind: types.KindInt},
		types.Column{Name: "big", Kind: types.KindInt},
		types.Column{Name: "x", Kind: types.KindFloat},
		types.Column{Name: "y", Kind: types.KindFloat},
		types.Column{Name: "flag", Kind: types.KindBool},
		types.Column{Name: "mix", Kind: types.KindString},
	)
	tab := storage.NewTable("zones", schema)
	b := storage.NewBuilder(tab, rowsPerBlock, 1, storage.InMemory)
	rng := rand.New(rand.NewSource(int64(rowsPerBlock)))
	const n = 3000
	for i := 0; i < n; i++ {
		city := types.Str(fmt.Sprintf("s%02d", rng.Intn(40)))
		switch {
		case i%37 == 0 || (i >= 600 && i < 700):
			city = types.Null()
		case i%43 == 0:
			city = types.Str("") // the least string, next to NULL
		}
		grp := types.Str(fmt.Sprintf("g%02d", i/120))
		if i/120 == 3 {
			grp = types.Null()
		}
		phase := types.Str(fmt.Sprintf("p%d", i/150))
		if i/150%2 == 1 {
			phase = types.Value(types.Int(int64(i / 150)))
		}
		dt := types.Int(int64(rng.Intn(1000) - 200))
		if i%53 == 0 || (i >= 1200 && i < 1300) {
			dt = types.Null()
		}
		big := types.Int(1<<53 - 40 + int64(rng.Intn(80)))
		if i >= n/2 {
			big = types.Int(-(1 << 53) - 40 + int64(rng.Intn(80)))
		}
		if i%41 == 0 {
			big = types.Null()
		}
		x := types.Float(float64(rng.Intn(200)) / 4)
		if i%61 == 0 {
			x = types.Null()
		}
		y := types.Float(rng.NormFloat64())
		if i == 1777 {
			y = types.Float(math.NaN()) // y's chunk is not NaN-free: no zone check reads it
		}
		mix := []types.Value{types.Int(int64(i % 7)), types.Str(fmt.Sprintf("m%d", i%5)), types.Null(), types.Float(float64(i%9) / 2)}[rng.Intn(4)]
		b.AppendRow(types.Row{city, grp, phase, dt, big, x, y, types.Bool(rng.Intn(2) == 0), mix})
	}
	return b.Finish()
}

// zoneConstants are constants a predicate may compare a column with: every
// kind, the ±2^53 edges in both numeric kinds, NaN and the infinities.
var zoneConstants = []types.Value{
	types.Null(), types.Int(0), types.Int(-3), types.Int(17), types.Int(500),
	types.Int(1<<53 - 1), types.Int(1 << 53), types.Int(1<<53 + 1), types.Int(-(1 << 53)), types.Int(-(1<<53 - 1)),
	types.Int(math.MaxInt64), types.Int(math.MinInt64),
	types.Float(2.5), types.Float(17), types.Float(math.Copysign(0, -1)), types.Float(1 << 53), types.Float(9007199254740993),
	types.Float(math.Inf(1)), types.Float(math.Inf(-1)), types.Float(math.NaN()),
	types.Str(""), types.Str("s05"), types.Str("s05x"), types.Str("g03"), types.Str("g10"), types.Str("p3"), types.Str("zz"),
	types.Bool(true), types.Bool(false),
}

// TestZoneVerdictsMatchCompare holds the zone checks, which compare a
// zone's payload typed where they can (zoneCmp), to the verdicts of the
// zone decoded by ZoneAt and compared by types.Compare (overlapsZone,
// leafImplied here), over generated
// conjunctions of every operator with constants of every kind (cross-kind
// int and float ones, ±2^53, NaN) on every column, for every block of
// tables cut at several sizes: with NULL, leading-NULL and all-NULL zones
// and a NaN-bearing chunk. A pruning verdict that moved would move
// rows_scanned; an all-true one, which rows skip the predicate.
func TestZoneVerdictsMatchCompare(t *testing.T) {
	ops := []types.CmpOp{types.CmpEq, types.CmpNe, types.CmpLt, types.CmpLe, types.CmpGt, types.CmpGe}
	for _, rowsPerBlock := range []int{1, 3, 16, 100, 1000} {
		tab := zoneTable(rowsPerBlock)
		width := tab.Schema.Len()
		encs := ""
		for _, col := range tab.Blocks[0].Chunk.Cols {
			encs += fmt.Sprint(col.Enc, " ")
		}
		if want := "dict rle rle int int float float bool value "; encs != want {
			t.Fatalf("the columns are encoded %q, want %q", encs, want)
		}
		rng := rand.New(rand.NewSource(int64(rowsPerBlock) + 1))
		for iter := 0; iter < 400; iter++ {
			var kids []types.Predicate
			for k := 1 + rng.Intn(3); k > 0; k-- {
				ci := rng.Intn(width)
				val := zoneConstants[rng.Intn(len(zoneConstants))]
				if rng.Intn(2) == 0 { // a value the column holds: the zone edges
					blk := tab.Blocks[rng.Intn(len(tab.Blocks))]
					val = blk.Chunk.Cols[ci].Value(blk.Off + rng.Intn(blk.N))
				}
				kids = append(kids, &types.CmpPred{Col: tab.Schema.Columns[ci].Name, ColIdx: ci, Op: ops[rng.Intn(len(ops))], Val: val})
			}
			pred := &types.AndPred{Kids: kids}
			bounds, leaves := boundList(ColumnBounds(pred)), conjunctiveLeaves(pred)
			for _, blk := range tab.Blocks {
				if got, want := zoneMayMatch(blk, bounds), refMayMatch(blk, bounds); got != want {
					t.Fatalf("block [%d,+%d) of %d-row blocks, WHERE %v: zoneMayMatch %v, the Compare path %v",
						blk.Off, blk.N, rowsPerBlock, pred, got, want)
				}
				if got, want := zoneImpliesPred(blk, leaves), refImpliesPred(blk, leaves); got != want {
					t.Fatalf("block [%d,+%d) of %d-row blocks, WHERE %v: zoneImpliesPred %v, the Compare path %v",
						blk.Off, blk.N, rowsPerBlock, pred, got, want)
				}
			}
		}
	}
}

// overlapsZone reports whether the interval can intersect [zMin, zMax]
// under types.Compare.
func (b *Bounds) overlapsZone(zMin, zMax types.Value) bool {
	if b.Hi != nil {
		c := types.Compare(zMin, *b.Hi)
		if c > 0 || (c == 0 && b.HiOpen) {
			return false
		}
	}
	if b.Lo != nil {
		c := types.Compare(zMax, *b.Lo)
		if c < 0 || (c == 0 && b.LoOpen) {
			return false
		}
	}
	return true
}

// leafImplied reports whether every value v with zmin ≤ v ≤ zmax under
// types.Compare satisfies "v op val", after the zoneOrderSafe guards.
func leafImplied(zmin, zmax, val types.Value, op types.CmpOp) bool {
	if !zoneOrderSafe(zmin) || !zoneOrderSafe(zmax) || !zoneOrderSafe(val) {
		return false
	}
	cmin, cmax := types.Compare(zmin, val), types.Compare(zmax, val)
	switch op {
	case types.CmpLt:
		return cmax < 0
	case types.CmpLe:
		return cmax <= 0
	case types.CmpGt:
		return cmin > 0
	case types.CmpGe:
		return cmin >= 0
	case types.CmpEq:
		return cmin == 0 && cmax == 0
	case types.CmpNe:
		return cmax < 0 || cmin > 0
	}
	return false
}

// refMayMatch is zoneMayMatch through the decoded zone.
func refMayMatch(b *storage.Block, bounds []colBound) bool {
	for _, cb := range bounds {
		zmin, zmax, ok := b.ZoneAt(cb.col)
		if ok && b.Chunk.Cols[cb.col].NaNFree && !cb.b.overlapsZone(zmin, zmax) {
			return false
		}
	}
	return true
}

// refImpliesPred is zoneImpliesPred through the decoded zone.
func refImpliesPred(b *storage.Block, leaves []*types.CmpPred) bool {
	for _, t := range leaves {
		zmin, zmax, ok := b.ZoneAt(t.ColIdx)
		if !ok || !b.Chunk.Cols[t.ColIdx].NaNFree || !leafImplied(zmin, zmax, t.Val, t.Op) {
			return false
		}
	}
	return true
}
