package colstore

import (
	"math/rand"
	"reflect"
	"testing"

	"blinkdb/internal/types"
)

// FromRows encodes a complete chunk in one call.
func FromRows(numCols int, rows []types.Row, rates []float64, freqs []int64) *Data {
	b := NewBuilder(numCols)
	for i, r := range rows {
		b.Append(r, rates[i], freqs[i])
	}
	return b.Finish()
}

// MinMax returns the smallest and largest non-NULL value of the column's
// first n rows under types.Compare, and false when every row is NULL: a
// summary the tests cross-check encodings with (block zone maps bracket
// every value of a block, NULLs included — see storage's cutter).
func (c *Column) MinMax(n int) (min, max types.Value, ok bool) {
	for i := 0; i < n; i++ {
		if c.IsNull(i) {
			continue
		}
		v := c.Value(i)
		if !ok {
			min, max, ok = v, v, true
			continue
		}
		if types.Compare(v, min) < 0 {
			min = v
		}
		if types.Compare(v, max) > 0 {
			max = v
		}
	}
	return min, max, ok
}

// nullCount counts the NULL rows among the column's first n.
func nullCount(c *Column, n int) int {
	count := 0
	for i := 0; i < n; i++ {
		if c.IsNull(i) {
			count++
		}
	}
	return count
}

// randomValue draws a value of a random kind, including NULLs.
func randomValue(rng *rand.Rand) types.Value {
	switch rng.Intn(5) {
	case 0:
		return types.Null()
	case 1:
		return types.Int(rng.Int63n(1000) - 500)
	case 2:
		return types.Float(rng.NormFloat64() * 100)
	case 3:
		return types.Str([]string{"NY", "SF", "LA", "Austin", ""}[rng.Intn(5)])
	default:
		return types.Bool(rng.Intn(2) == 0)
	}
}

// TestRoundTripTyped pins the lossless-encoding contract per encoding:
// every appended value (kind included) reconstructs exactly.
func TestRoundTripTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gens := map[string]func() types.Value{
		"float": func() types.Value { return types.Float(rng.NormFloat64()) },
		"int":   func() types.Value { return types.Int(rng.Int63()) },
		"bool":  func() types.Value { return types.Bool(rng.Intn(2) == 0) },
		"dict":  func() types.Value { return types.Str([]string{"a", "bb", "ccc"}[rng.Intn(3)]) },
	}
	wantEnc := map[string]Encoding{"float": EncFloat, "int": EncInt, "bool": EncBool, "dict": EncDict}
	for name, gen := range gens {
		for _, withNulls := range []bool{false, true} {
			rows := make([]types.Row, 200)
			rates := make([]float64, len(rows))
			freqs := make([]int64, len(rows))
			for i := range rows {
				v := gen()
				if withNulls && rng.Intn(4) == 0 {
					v = types.Null()
				}
				rows[i] = types.Row{v}
				rates[i] = 1
			}
			d := FromRows(1, rows, rates, freqs)
			if d.Cols[0].Enc != wantEnc[name] {
				t.Fatalf("%s(nulls=%v): encoding = %v, want %v", name, withNulls, d.Cols[0].Enc, wantEnc[name])
			}
			for i := range rows {
				if got := d.Cols[0].Value(i); !reflect.DeepEqual(got, rows[i][0]) {
					t.Fatalf("%s(nulls=%v) row %d: got %#v want %#v", name, withNulls, i, got, rows[i][0])
				}
			}
		}
	}
}

// TestRoundTripMixed pins the EncValue fallback: mixed-kind columns still
// reconstruct exactly.
func TestRoundTripMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 500
	rows := make([]types.Row, n)
	rates := make([]float64, n)
	freqs := make([]int64, n)
	for i := range rows {
		rows[i] = types.Row{randomValue(rng), randomValue(rng), randomValue(rng)}
		rates[i] = 1 / float64(1+rng.Intn(4))
		freqs[i] = int64(rng.Intn(3) * 100)
	}
	d := FromRows(3, rows, rates, freqs)
	if d.N != n {
		t.Fatalf("N = %d, want %d", d.N, n)
	}
	buf := make(types.Row, 3)
	for i := range rows {
		if got := d.Row(i); !reflect.DeepEqual(got, rows[i]) {
			t.Fatalf("row %d: got %v want %v", i, got, rows[i])
		}
		if got := d.RowInto(buf, i); !reflect.DeepEqual(got, rows[i]) {
			t.Fatalf("RowInto %d: got %v want %v", i, got, rows[i])
		}
		if rateAt(d, i) != rates[i] || freqAt(d, i) != freqs[i] {
			t.Fatalf("meta %d: (%g,%d) want (%g,%d)", i, rateAt(d, i), freqAt(d, i), rates[i], freqs[i])
		}
	}
}

// rateAt and freqAt read row i's sampling rate and stratum frequency
// through its metadata run.
func rateAt(d *Data, i int) float64 { return d.Rates[d.MetaRunOf(i)] }
func freqAt(d *Data, i int) int64   { return d.Freqs[d.MetaRunOf(i)] }

// TestUniformMetaCompression pins that constant (rate, freq) pairs drop
// their per-row arrays — the property the executor's hoisted-rate fast
// path dispatches on.
func TestUniformMetaCompression(t *testing.T) {
	rows := []types.Row{{types.Int(1)}, {types.Int(2)}, {types.Int(3)}}
	d := FromRows(1, rows, []float64{1, 1, 1}, []int64{7, 7, 7})
	if len(d.MetaEnds) > 1 {
		t.Fatalf("uniform meta not compressed: %+v", d)
	}
	if rateAt(d, 2) != 1 || freqAt(d, 0) != 7 {
		t.Fatalf("uniform accessors wrong: rate=%g freq=%d", rateAt(d, 2), freqAt(d, 0))
	}
	d2 := FromRows(1, rows, []float64{1, 0.5, 1}, []int64{7, 7, 7})
	if len(d2.MetaEnds) <= 1 || rateAt(d2, 1) != 0.5 || freqAt(d2, 1) != 7 {
		t.Fatalf("varying rates must keep the array: %+v", d2)
	}
}

// TestRowKeyMatchesTypesRowKey pins that a chunk gives every row back
// with the RowKey it was appended with, over one to three columns — the
// key equality Strata numbers and the sampler and optimizer stratify on.
func TestRowKeyMatchesTypesRowKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 300
	rows := make([]types.Row, n)
	rates := make([]float64, n)
	freqs := make([]int64, n)
	for i := range rows {
		rows[i] = types.Row{randomValue(rng), randomValue(rng), randomValue(rng), randomValue(rng)}
		rates[i] = 1
	}
	d := FromRows(4, rows, rates, freqs)
	for _, idx := range [][]int{{0}, {2}, {0, 1}, {3, 1, 2}} {
		for i := range rows {
			if got, want := types.RowKey(d.Row(i), idx), types.RowKey(rows[i], idx); got != want {
				t.Fatalf("idx %v row %d: key %q want %q", idx, i, got, want)
			}
		}
	}
}

// TestMinMaxAndNulls checks the zone-map helper and null accounting.
func TestMinMaxAndNulls(t *testing.T) {
	rows := []types.Row{
		{types.Float(3), types.Null()},
		{types.Null(), types.Null()},
		{types.Float(-1), types.Null()},
		{types.Float(7), types.Null()},
	}
	d := FromRows(2, rows, []float64{1, 1, 1, 1}, make([]int64, 4))
	min, max, ok := d.Cols[0].MinMax(d.N)
	if !ok || min.F != -1 || max.F != 7 {
		t.Fatalf("minmax = %v %v %v", min, max, ok)
	}
	if got := nullCount(&d.Cols[0], d.N); got != 1 {
		t.Fatalf("NULL rows = %d, want 1", got)
	}
	if _, _, ok := d.Cols[1].MinMax(d.N); ok {
		t.Fatalf("all-null column reported a min/max")
	}
	if got := nullCount(&d.Cols[1], d.N); got != 4 {
		t.Fatalf("all-null NULL rows = %d, want 4", got)
	}
}

// TestDictDeterminism pins first-appearance dictionary order, which keeps
// block encoding deterministic for a fixed row sequence.
func TestDictDeterminism(t *testing.T) {
	rows := []types.Row{
		{types.Str("b")}, {types.Str("a")}, {types.Str("b")}, {types.Str("c")},
	}
	d := FromRows(1, rows, []float64{1, 1, 1, 1}, make([]int64, 4))
	want := []string{"b", "a", "c"}
	if !reflect.DeepEqual(d.Cols[0].Dict, want) {
		t.Fatalf("dict = %v, want %v", d.Cols[0].Dict, want)
	}
	if !reflect.DeepEqual(d.Cols[0].Codes8, []uint8{0, 1, 0, 2}) || d.Cols[0].Codes16 != nil {
		t.Fatalf("codes = %v / %v, want one byte each", d.Cols[0].Codes8, d.Cols[0].Codes16)
	}
}
