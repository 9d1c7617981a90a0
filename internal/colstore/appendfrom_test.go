package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// TestAppendFromMatchesAppend holds the typed AppendFrom to appending the
// same values one by one: after every window, every column accumulator —
// payloads, dictionary order, null bitmap, runs, the last run's value, the
// NULL, NaN and mixed-kind state — is the same.
// Windows come from chunks encoded every way (typed with NULLs, dict, RLE,
// verbatim, all-NULL), from different chunks into one, so a column's kind
// can change or mix between windows.
func TestAppendFromMatchesAppend(t *testing.T) {
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
	rng := rand.New(rand.NewSource(5))
	const width = 8
	// Each source chunk draws every column from a generator picked per
	// chunk, so one column is float in one chunk and strings in the next.
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
	got, want := NewBuilder(width), NewBuilder(width)
	for step := 0; step < 400; step++ {
		s := rng.Intn(len(srcs))
		lo := rng.Intn(srcs[s].N)
		hi := lo + 1 + rng.Intn(srcs[s].N-lo)
		got.AppendFrom(srcs[s], lo, hi)
		for i := lo; i < hi; i++ {
			want.Append(srcRows[s][i], 1, int64(srcs[s].N))
		}
		for c := range got.cols {
			if diff := accDiff(&got.cols[c], &want.cols[c]); diff != "" {
				t.Fatalf("step %d, rows [%d,%d) of chunk %d, column %d: %s", step, lo, hi, s, c, diff)
			}
		}
		// Finish encodes from this state alone; closing chunks at random
		// starts windows at row 0 too.
		if rng.Intn(4) == 0 || got.Len() > 2000 {
			got.Finish()
			want.Finish()
		}
	}
}
