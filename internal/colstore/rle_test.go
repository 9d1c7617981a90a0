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
// typed encoding, hinted columns accept shorter runs, DisableRLE wins over
// everything, and tiny blocks never RLE.
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
	if col := encodeSingle(longRuns, (*Builder).DisableRLE); col.Enc != EncDict {
		t.Errorf("DisableRLE: encoding = %v, want dict", col.Enc)
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

// TestRLEMinMaxAndRowKey checks the generic readers (MinMax, RowKey) see
// through the RLE encoding identically to the plain one.
func TestRLEMinMaxAndRowKey(t *testing.T) {
	rows := runRows([]struct {
		v types.Value
		n int
	}{{types.Int(5), 30}, {types.Null(), 10}, {types.Int(-3), 30}})
	rates := make([]float64, len(rows))
	freqs := make([]int64, len(rows))
	for i := range rates {
		rates[i] = 1
	}
	b := NewBuilder(1)
	for i, r := range rows {
		b.Append(r, rates[i], freqs[i])
	}
	rle := b.Finish()
	plain := func() *Data {
		b := NewBuilder(1)
		b.DisableRLE()
		for i, r := range rows {
			b.Append(r, rates[i], freqs[i])
		}
		return b.Finish()
	}()
	if rle.Cols[0].Enc != EncRLE || plain.Cols[0].Enc == EncRLE {
		t.Fatalf("leg encodings = %v / %v", rle.Cols[0].Enc, plain.Cols[0].Enc)
	}
	gotMin, gotMax, gotOK := rle.Cols[0].MinMax(rle.N)
	wantMin, wantMax, wantOK := plain.Cols[0].MinMax(plain.N)
	if gotOK != wantOK || !reflect.DeepEqual(gotMin, wantMin) || !reflect.DeepEqual(gotMax, wantMax) {
		t.Fatalf("MinMax: rle (%v,%v,%v) vs plain (%v,%v,%v)", gotMin, gotMax, gotOK, wantMin, wantMax, wantOK)
	}
	idx := []int{0}
	for i := range rows {
		if kr, kp := rle.RowKey(i, idx), plain.RowKey(i, idx); kr != kp {
			t.Fatalf("RowKey(%d): rle %q vs plain %q", i, kr, kp)
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
