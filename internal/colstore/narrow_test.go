package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"blinkdb/internal/types"
)

// narrowCase is one int or bool column's values and the form the builder
// must store them in.
type narrowCase struct {
	name   string
	vals   []types.Value
	narrow bool
}

// narrowCases returns columns of n rows at the edges of the 16-bit window
// rule: a span of exactly 65,535 (narrow) and 65,536 (wide), windows at
// each end of int64, both ends at once (whose span overflows int64), NULL
// rows after a leading NULL run, and a bool column with NULLs.
func narrowCases(n int, seed int64) []narrowCase {
	rng := rand.New(rand.NewSource(seed))
	ints := func(lo int64, span uint64, nullEvery int) []types.Value {
		vals := make([]types.Value, n)
		for i := range vals {
			switch {
			case nullEvery > 0 && (i < 70 || rng.Intn(nullEvery) == 0):
				vals[i] = types.Null()
			case i == 80:
				vals[i] = types.Int(lo)
			case i == 81:
				vals[i] = types.Int(int64(uint64(lo) + span))
			default:
				off := rng.Uint64()
				if span < math.MaxUint64 {
					off %= span + 1
				}
				vals[i] = types.Int(int64(uint64(lo) + off))
			}
		}
		return vals
	}
	bools := make([]types.Value, n)
	for i := range bools {
		bools[i] = types.Bool(rng.Intn(2) == 0)
		if i < 3 || rng.Intn(5) == 0 {
			bools[i] = types.Null()
		}
	}
	return []narrowCase{
		{"span 65535", ints(1000, 65535, 0), true},
		{"span 65536", ints(1000, 65536, 0), false},
		{"from MinInt64", ints(math.MinInt64, 65535, 0), true},
		{"to MaxInt64", ints(math.MaxInt64-65535, 65535, 9), true},
		{"ends of int64", ints(math.MinInt64, math.MaxUint64, 0), false},
		{"leading NULLs", ints(-5, 300, 7), true},
		{"bool", bools, true},
	}
}

// TestNarrowInts holds the two int forms to the window rule and to the
// losslessness contract: the builder stores a column narrow exactly when
// its non-NULL values span at most 65,535, a NULL row's slot holds 0 in
// either form, Value gives back every appended value, AppendFrom over
// windows rebuilds the column field for field, and Strata and RowKey tell
// rows apart as the values do.
func TestNarrowInts(t *testing.T) {
	const n = 2000
	for _, tc := range narrowCases(n, 1) {
		b := NewBuilder(1)
		for _, v := range tc.vals {
			b.Append(types.Row{v}, 1, 0)
		}
		d := b.Finish()
		col := &d.Cols[0]
		if col.Enc == EncRLE {
			t.Fatalf("%s: run-length encoded; the case needs the int forms", tc.name)
		}
		if col.Narrow() != tc.narrow || (col.Ints == nil) != tc.narrow || col.Len() != n {
			t.Fatalf("%s: narrow %v (Ints %d, Offs %d), want narrow %v", tc.name, col.Narrow(), len(col.Ints), len(col.Offs), tc.narrow)
		}
		for i, v := range tc.vals {
			if got := col.Value(i); !sameBits(got, v) {
				t.Fatalf("%s: row %d is %#v, appended %#v", tc.name, i, got, v)
			}
			if v.IsNull() && (tc.narrow && col.Offs[i] != 0 || !tc.narrow && col.Ints[i] != 0) {
				t.Fatalf("%s: NULL row %d holds a payload", tc.name, i)
			}
		}

		re := NewBuilder(1)
		for _, w := range [][2]int{{0, 1}, {1, 75}, {75, 1000}, {1000, n}} {
			re.AppendFrom(d, w[0], w[1])
		}
		if got := re.Finish(); !reflect.DeepEqual(got.Cols[0], *col) {
			t.Fatalf("%s: AppendFrom rebuilt base %d, %d offsets, %d ints; want base %d, %d offsets, %d ints",
				tc.name, got.Cols[0].Base, len(got.Cols[0].Offs), len(got.Cols[0].Ints), col.Base, len(col.Offs), len(col.Ints))
		}

		s := NewStrata([]int{0})
		ids := s.IDs(d, 0, n, nil)
		idOf := map[string]uint32{}
		for i, v := range tc.vals {
			key := types.RowKey(d.Row(i), []int{0})
			if key != v.Key() {
				t.Fatalf("%s: row %d keyed %q, want %q", tc.name, i, key, v.Key())
			}
			if id, ok := idOf[key]; ok && id != ids[i] || !ok && int(ids[i]) != len(idOf) {
				t.Fatalf("%s: row %d numbered %d", tc.name, i, ids[i])
			}
			idOf[key] = ids[i]
		}
	}
}

// TestDictCodeWidth pins the dictionary code width rule at its edge: a
// chunk column of 256 distinct strings stores one byte a row, one of 257
// two, NULL rows included, and a re-cut (AppendFrom) that joins chunks of
// either width — or splits one — picks the width from the dictionary it
// ends with. Every row reads back as appended, through Value and Strata.
func TestDictCodeWidth(t *testing.T) {
	strs := func(distinct, n int) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.Str(fmt.Sprintf("v%03d", i%distinct))}
			if i%11 == 5 && i >= distinct {
				rows[i] = types.Row{types.Null()}
			}
		}
		return rows
	}
	width := func(c *Column) int {
		switch {
		case c.Enc != EncDict:
			return 0
		case c.Codes8 != nil && c.Codes16 == nil:
			return 1
		case c.Codes16 != nil && c.Codes8 == nil:
			return 2
		}
		return -1
	}
	rates, freqs := make([]float64, 2000), make([]int64, 2000)
	for i := range rates {
		rates[i], freqs[i] = 1, 1
	}
	small, large := strs(MaxDict8, 1000), strs(MaxDict8+1, 1000)
	for _, tc := range []struct {
		name           string
		rows           []types.Row
		entries, width int
	}{{"256 strings", small, MaxDict8, 1}, {"257 strings", large, MaxDict8 + 1, 2}} {
		d := FromRows(1, tc.rows, rates, freqs)
		if got := width(&d.Cols[0]); got != tc.width || len(d.Cols[0].Dict) != tc.entries {
			t.Fatalf("%s: %d-byte codes over %d entries, want %d-byte over %d", tc.name, got, len(d.Cols[0].Dict), tc.width, tc.entries)
		}
		checkRows(t, tc.name, d, tc.rows)
	}

	// Re-cuts: a 1-byte chunk then a 2-byte one (their union has 257+
	// strings: 2 bytes), and the first 300 rows of the 2-byte chunk alone
	// (256 strings met: 1 byte).
	ds, dl := FromRows(1, small, rates, freqs), FromRows(1, large, rates, freqs)
	b := NewBuilder(1)
	b.AppendFrom(ds, 0, ds.N)
	b.AppendFrom(dl, 0, dl.N)
	joined := b.Finish()
	if got := width(&joined.Cols[0]); got != 2 {
		t.Fatalf("joined: %d-byte codes, want 2", got)
	}
	checkRows(t, "joined", joined, append(append([]types.Row(nil), small...), large...))
	b.AppendFrom(dl, 0, 256)
	b.AppendFrom(ds, 0, 300)
	head := b.Finish()
	if got := width(&head.Cols[0]); got != 1 {
		t.Fatalf("head: %d-byte codes over %d entries, want 1", got, len(head.Cols[0].Dict))
	}
	checkRows(t, "head", head, append(append([]types.Row(nil), large[:256]...), small[:300]...))
}
