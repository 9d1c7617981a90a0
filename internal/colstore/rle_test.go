package colstore

import (
	"math"
	"reflect"
	"testing"

	"blinkdb/internal/types"
)

// runRows builds a single-column block of the given runs, each entry
// (value, length).
func runRows(runs []struct {
	v types.Value
	n int
}) []types.Row {
	var rows []types.Row
	for _, r := range runs {
		for i := 0; i < r.n; i++ {
			rows = append(rows, types.Row{r.v})
		}
	}
	return rows
}

func encodeSingle(rows []types.Row, opts ...func(*Builder)) Column {
	b := NewBuilder(1)
	for _, o := range opts {
		o(b)
	}
	for _, r := range rows {
		b.Append(r, 1, 0)
	}
	return b.Finish().Cols[0]
}

// TestRLERoundTrip pins the lossless contract on a run-shaped column that
// mixes kinds, NULL runs, and single-row runs: every Value/IsNull must
// match the appended sequence exactly, and the encoder must pick EncRLE.
func TestRLERoundTrip(t *testing.T) {
	rows := runRows([]struct {
		v types.Value
		n int
	}{
		{types.Str("alpha"), 20},
		{types.Null(), 15},
		{types.Int(7), 12},
		{types.Float(7), 1}, // kind switch: must not merge with Int(7)
		{types.Float(7), 0},
		{types.Bool(true), 30},
		{types.Str(""), 10},
	})
	col := encodeSingle(rows)
	if col.Enc != EncRLE {
		t.Fatalf("encoding = %v, want rle", col.Enc)
	}
	if got := col.Len(); got != len(rows) {
		t.Fatalf("Len = %d, want %d", got, len(rows))
	}
	for i, r := range rows {
		if got := col.Value(i); !reflect.DeepEqual(got, r[0]) {
			t.Fatalf("row %d: got %#v want %#v", i, got, r[0])
		}
		if got, want := col.IsNull(i), r[0].Kind == types.KindNull; got != want {
			t.Fatalf("row %d: IsNull = %v, want %v", i, got, want)
		}
	}
	if got, want := nullCount(&col, len(rows)), 15; got != want {
		t.Fatalf("NULL rows = %d, want %d", got, want)
	}
	// Int(7) and Float(7) compare equal but are distinct values — the
	// round trip above already proves they landed in separate runs.
}

// TestRLEThresholds pins encoder selection: long runs → RLE, short runs →
// typed encoding, hinted columns accept shorter runs, and tiny blocks never
// RLE.
func TestRLEThresholds(t *testing.T) {
	longRuns := runRows([]struct {
		v types.Value
		n int
	}{{types.Str("a"), 50}, {types.Str("b"), 50}})
	shortRuns := make([]types.Row, 120) // mean run 3: below default bar, above hinted
	for i := range shortRuns {
		shortRuns[i] = types.Row{types.Str([]string{"a", "a", "a", "b", "b", "b"}[i%6])}
	}
	tiny := runRows([]struct {
		v types.Value
		n int
	}{{types.Str("a"), 15}}) // under rleMinRows

	if col := encodeSingle(longRuns); col.Enc != EncRLE {
		t.Errorf("long runs: encoding = %v, want rle", col.Enc)
	}
	if col := encodeSingle(shortRuns); col.Enc != EncDict {
		t.Errorf("short runs unhinted: encoding = %v, want dict", col.Enc)
	}
	if col := encodeSingle(shortRuns, func(b *Builder) { b.HintSorted(0) }); col.Enc != EncRLE {
		t.Errorf("short runs hinted: encoding = %v, want rle", col.Enc)
	}
	if col := encodeSingle(tiny); col.Enc != EncDict {
		t.Errorf("tiny block: encoding = %v, want dict", col.Enc)
	}
	// Out-of-range hints are ignored, not a panic.
	if col := encodeSingle(longRuns, func(b *Builder) { b.HintSorted(-1, 5) }); col.Enc != EncRLE {
		t.Errorf("out-of-range hint: encoding = %v, want rle", col.Enc)
	}
}

// TestRLENaN pins two NaN properties: NaN never extends a run (struct
// equality — losslessness depends on it), and a NaN anywhere clears
// NaNFree so zone implication refuses the column.
func TestRLENaN(t *testing.T) {
	rows := runRows([]struct {
		v types.Value
		n int
	}{{types.Float(1), 40}, {types.Float(math.NaN()), 1}, {types.Float(1), 40}})
	// Insert a second consecutive NaN: distinct runs even side by side.
	rows = append(rows, types.Row{types.Float(math.NaN())})
	col := encodeSingle(rows)
	if col.Enc != EncRLE {
		t.Fatalf("encoding = %v, want rle", col.Enc)
	}
	if col.NaNFree {
		t.Error("NaNFree = true on a NaN-bearing column")
	}
	for i := range rows {
		got, want := col.Value(i), rows[i][0]
		if got.Kind != want.Kind || (got.F != want.F && !(math.IsNaN(got.F) && math.IsNaN(want.F))) {
			t.Fatalf("row %d: got %#v want %#v", i, got, want)
		}
	}
	clean := encodeSingle(runRows([]struct {
		v types.Value
		n int
	}{{types.Float(1), 40}, {types.Float(2), 40}}))
	if !clean.NaNFree {
		t.Error("NaNFree = false on a NaN-free RLE column")
	}
}

// TestRLEMinMaxAndRowKey checks the generic readers (MinMax, Row) over
// one column's values in two row orders: in runs, which RLE-encode, and
// interleaved, which take the plain int encoding. Each reads back what
// was appended.
func TestRLEMinMaxAndRowKey(t *testing.T) {
	runs := runRows([]struct {
		v types.Value
		n int
	}{{types.Int(5), 30}, {types.Null(), 10}, {types.Int(-3), 30}})
	interleaved := make([]types.Row, 0, len(runs))
	for i := 0; i < 30; i++ {
		interleaved = append(interleaved, runs[i], runs[40+i])
		if i < 10 {
			interleaved = append(interleaved, runs[30+i])
		}
	}
	for _, leg := range []struct {
		name string
		rows []types.Row
		rle  bool
	}{{"rle", runs, true}, {"plain", interleaved, false}} {
		b := NewBuilder(1)
		for _, r := range leg.rows {
			b.Append(r, 1, 0)
		}
		d := b.Finish()
		if got := d.Cols[0].Enc == EncRLE; got != leg.rle {
			t.Fatalf("%s: encoding %v", leg.name, d.Cols[0].Enc)
		}
		lo, hi, ok := d.Cols[0].MinMax(d.N)
		if !ok || !reflect.DeepEqual(lo, types.Int(-3)) || !reflect.DeepEqual(hi, types.Int(5)) {
			t.Fatalf("%s: MinMax (%v,%v,%v), want (-3,5,true)", leg.name, lo, hi, ok)
		}
		idx := []int{0}
		for i, r := range leg.rows {
			if got, want := types.RowKey(d.Row(i), idx), types.RowKey(r, idx); got != want {
				t.Fatalf("%s: RowKey(%d) = %q, want %q", leg.name, i, got, want)
			}
		}
	}
}

// TestRLEKeepsZeroSign pins that −0 and +0 never share a run: Float(−0)
// == Float(+0) as Go values, but their keys differ, so a run that merged
// them would give rows back with the other sign — and move them to another
// stratum. Both ways of filling a builder are held: Append, and AppendFrom
// out of plain chunks (whose runs are counted over the typed payloads),
// each under rleMinRows rows so that it keeps the typed encoding.
func TestRLEKeepsZeroSign(t *testing.T) {
	negZero := types.Float(math.Copysign(0, -1))
	rows := runRows([]struct {
		v types.Value
		n int
	}{{negZero, 20}, {types.Float(0), 20}, {negZero, 20}, {types.Null(), 5}, {types.Float(0), 20}})
	from := NewBuilder(1)
	for lo := 0; lo < len(rows); lo += rleMinRows - 1 {
		plain := NewBuilder(1)
		for _, r := range rows[lo:min(lo+rleMinRows-1, len(rows))] {
			plain.Append(r, 1, 0)
		}
		src := plain.Finish()
		if src.Cols[0].Enc == EncRLE {
			t.Fatalf("a %d-row chunk is run-length encoded", src.N)
		}
		from.AppendFrom(src, 0, 7)
		from.AppendFrom(src, 7, src.N)
	}
	for name, col := range map[string]Column{"append": encodeSingle(rows), "appendFrom": from.Finish().Cols[0]} {
		if col.Enc != EncRLE || len(col.RunVals) != 5 {
			t.Fatalf("%s: encoding %v with %d runs, want rle with 5", name, col.Enc, len(col.RunVals))
		}
		for i, r := range rows {
			if got := col.Value(i); got.Kind != r[0].Kind || math.Signbit(got.F) != math.Signbit(r[0].F) {
				t.Fatalf("%s: row %d is %#v (key %q), want key %q", name, i, got, got.Key(), r[0].Key())
			}
		}
	}
}

// TestRunOf pins the run-locator used by the scan kernels' run cursors.
func TestRunOf(t *testing.T) {
	col := encodeSingle(runRows([]struct {
		v types.Value
		n int
	}{{types.Str("a"), 17}, {types.Str("b"), 1}, {types.Str("c"), 46}}))
	if col.Enc != EncRLE {
		t.Fatalf("encoding = %v, want rle", col.Enc)
	}
	for i := 0; i < 64; i++ {
		want := 0
		switch {
		case i >= 18:
			want = 2
		case i >= 17:
			want = 1
		}
		if got := col.RunOf(i); got != want {
			t.Fatalf("RunOf(%d) = %d, want %d", i, got, want)
		}
	}
}
