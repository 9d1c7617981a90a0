package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"blinkdb/internal/types"
)

// sameBits is value identity: kind and payload, floats by their bits.
func sameBits(a, b types.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// accDiff describes the first field in which two accumulators differ.
func accDiff(got, want *colAcc) string {
	floatBits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	sameVals := func(a, b []types.Value) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !sameBits(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	switch {
	case got.kind != want.kind || got.mixed != want.mixed:
		return fmt.Sprintf("kind %v mixed %v, want %v %v", got.kind, got.mixed, want.kind, want.mixed)
	case got.runs != want.runs || !sameBits(got.last, want.last):
		return fmt.Sprintf("runs %d last %#v, want %d %#v", got.runs, got.last, want.runs, want.last)
	case got.hasNull != want.hasNull || got.hasNaN != want.hasNaN:
		return fmt.Sprintf("hasNull %v hasNaN %v, want %v %v", got.hasNull, got.hasNaN, want.hasNull, want.hasNaN)
	case !reflect.DeepEqual(floatBits(got.floats), floatBits(want.floats)):
		return "floats differ"
	case fmt.Sprint(got.ints) != fmt.Sprint(want.ints):
		return "ints differ"
	case fmt.Sprint(got.codes) != fmt.Sprint(want.codes) || fmt.Sprint(got.dict) != fmt.Sprint(want.dict):
		return "codes or dictionary differ"
	case !reflect.DeepEqual(got.lookup, want.lookup) && len(got.lookup)+len(want.lookup) > 0:
		return "lookup differs"
	case fmt.Sprint(got.nulls) != fmt.Sprint(want.nulls):
		return "null bitmaps differ"
	case !sameVals(got.values, want.values):
		return "values differ"
	}
	return ""
}

// rowsOf locates rows [lo, hi) of chunk s of a gather's list, in order.
func rowsOf(s, lo, hi int) []Loc {
	locs := make([]Loc, 0, hi-lo)
	for r := lo; r < hi; r++ {
		locs = append(locs, Loc{int32(s), int32(r)})
	}
	return locs
}

// mixedChunks draws 12 source chunks of width columns and the rows each
// was built from. Each chunk draws every column from a generator picked
// per chunk, so a column is encoded every way — typed with NULLs, dict,
// RLE, verbatim, all-NULL — and changes kind from one chunk to the next.
func mixedChunks(rng *rand.Rand, width int) ([]*Data, [][]types.Row) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	gens := []func(rng *rand.Rand, i int) types.Value{
		func(rng *rand.Rand, i int) types.Value { // floats: NULLs, NaNs, ±0
			switch rng.Intn(12) {
			case 0:
				return types.Null()
			case 1:
				return types.Float(math.NaN())
			case 2:
				return types.Float(nan2)
			case 3:
				return types.Float(math.Copysign(0, -1))
			case 4:
				return types.Float(0)
			}
			return types.Float(float64(rng.Intn(4)))
		},
		func(rng *rand.Rand, i int) types.Value { // strings in runs, NULL runs
			if i/9%4 == 3 {
				return types.Null()
			}
			return types.Str(fmt.Sprintf("s%d", i/9%7))
		},
		func(rng *rand.Rand, i int) types.Value { // dict with NULLs
			if rng.Intn(5) == 0 {
				return types.Null()
			}
			return types.Str([]string{"a", "b", "c", "d"}[rng.Intn(4)])
		},
		func(rng *rand.Rand, i int) types.Value { // ints, leading NULLs
			if i < 40 {
				return types.Null()
			}
			return types.Int(int64(rng.Intn(3)))
		},
		func(rng *rand.Rand, i int) types.Value { // bools
			return types.Bool(rng.Intn(2) == 0)
		},
		func(rng *rand.Rand, i int) types.Value { return randomValue(rng) }, // every kind
		func(rng *rand.Rand, i int) types.Value { return types.Null() },
	}
	var srcs []*Data
	var srcRows [][]types.Row
	for s := 0; s < 12; s++ {
		n := 50 + rng.Intn(300)
		rows := make([]types.Row, n)
		pick := make([]int, width)
		for c := range pick {
			pick[c] = rng.Intn(len(gens))
			if rng.Intn(2) == 0 {
				pick[c] = c % len(gens)
			}
		}
		for i := range rows {
			rows[i] = make(types.Row, width)
			for c := range rows[i] {
				rows[i][c] = gens[pick[c]](rng, i)
			}
		}
		b := NewBuilder(width)
		if s%3 == 1 {
			b.HintSorted(1, 2, 3)
		}
		for _, r := range rows {
			b.Append(r, 1, int64(len(rows)))
		}
		srcs, srcRows = append(srcs, b.Finish()), append(srcRows, rows)
	}
	return srcs, srcRows
}

// TestAppendGatherMatchesAppend holds AppendGather to appending the same
// rows one by one: after every gather, every column accumulator — payloads,
// dictionary order, null bitmap, runs, the last run's value, the NULL, NaN
// and mixed-kind state — and the metadata runs are the same. A gather takes rows of any chunk in any order — a stretch of one
// chunk's rows, one row from chunk after chunk, a row repeated — and the
// chunk list is reordered now and then, so the dictionary tables are laid
// out anew in the middle of a chunk being built.
func TestAppendGatherMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const width = 8
	srcs, srcRows := mixedChunks(rng, width)
	// Two chunks of wide ints and 2-byte dictionary codes, both with NULLs,
	// which the generators above do not draw.
	for range 2 {
		rows := make([]types.Row, 600)
		for i := range rows {
			rows[i] = make(types.Row, width)
			for c := range rows[i] {
				switch {
				case rng.Intn(9) == 0:
					rows[i][c] = types.Null()
				case c%2 == 0:
					rows[i][c] = types.Int(rng.Int63n(1<<40) - 1<<39)
				default:
					rows[i][c] = types.Str(fmt.Sprintf("w%03d", rng.Intn(400)))
				}
			}
		}
		rates := make([]float64, len(rows))
		for i := range rates {
			rates[i] = 1
		}
		d := FromRows(width, rows, rates, make([]int64, len(rows)))
		if d.Cols[0].Enc != EncInt || d.Cols[0].Narrow() || d.Cols[1].Enc != EncDict || d.Cols[1].Codes16 == nil {
			t.Fatalf("extra chunk encodes %v (narrow %v) and %v, want wide ints and 2-byte codes", d.Cols[0].Enc, d.Cols[0].Narrow(), d.Cols[1].Enc)
		}
		srcs, srcRows = append(srcs, d), append(srcRows, rows)
	}
	order := rng.Perm(len(srcs)) // list[i] is srcs[order[i]]
	list := make([]*Data, len(srcs))
	got, want := NewBuilder(width), NewBuilder(width)
	for step := 0; step < 600; step++ {
		if step%40 == 0 {
			order = rng.Perm(len(srcs))
			for i, s := range order {
				list[i] = srcs[s]
			}
		}
		n := 1 + rng.Intn(200)
		locs := make([]Loc, 0, n)
		for len(locs) < n {
			s := rng.Intn(len(list))
			r := rng.Intn(list[s].N)
			k := 1 // rows this draw adds
			switch rng.Intn(3) {
			case 0:
				k = min(1+rng.Intn(30), list[s].N-r, n-len(locs))
			case 1:
				for range rng.Intn(4) {
					locs = append(locs, Loc{int32(s), int32(r)})
				}
			}
			for j := range k {
				locs = append(locs, Loc{int32(s), int32(r + j)})
			}
		}
		freq := int64(rng.Intn(3))
		got.AppendGather(list, locs, 1, freq)
		for _, l := range locs {
			want.Append(srcRows[order[l.Chunk]][l.Row], 1, freq)
		}
		for c := range got.cols {
			if diff := accDiff(&got.cols[c], &want.cols[c]); diff != "" {
				t.Fatalf("step %d, %d rows, column %d: %s", step, len(locs), c, diff)
			}
		}
		if got.n != want.n || !slices.Equal(got.metaEnds, want.metaEnds) || !slices.Equal(got.freqs, want.freqs) || !slices.Equal(got.rates, want.rates) {
			t.Fatalf("step %d: %d rows in metadata runs %v %v, want %d in %v %v", step, got.n, got.metaEnds, got.freqs, want.n, want.metaEnds, want.freqs)
		}
		if rng.Intn(4) == 0 || got.Len() > 2000 {
			got.Finish()
			want.Finish()
		}
	}
}
