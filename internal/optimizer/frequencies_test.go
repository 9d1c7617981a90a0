package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"blinkdb/internal/colstore"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// frequenciesByRowKey is the reference frequencies is held to: one RowKey
// string per row, counted in a map.
func frequenciesByRowKey(tab *storage.Table, phi types.ColumnSet) []int64 {
	var idx []int
	for _, col := range phi.Columns() {
		idx = append(idx, tab.Schema.Index(col))
	}
	counts := map[string]int64{}
	for _, b := range tab.Blocks {
		for i, n := 0, b.NumRows(); i < n; i++ {
			counts[b.RowKey(i, idx)]++
		}
	}
	out := make([]int64, 0, len(counts))
	for _, c := range counts {
		out = append(out, c)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] > out[b] })
	return out
}

// TestFrequenciesMatchRowKeyCount holds frequencies to the RowKey count
// on a table of several chunks whose dictionaries differ (each chunk draws
// from a shifted vocabulary, in its own first-appearance order), over φ
// columns with NULLs, mixed kinds (Int(1) beside Bool(true), NaNs of two
// payloads, ±0) and RLE runs, for |φ| = 1, 2 and 3.
func TestFrequenciesMatchRowKeyCount(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "run", Kind: types.KindInt},
		types.Column{Name: "mix", Kind: types.KindInt},
		types.Column{Name: "f", Kind: types.KindFloat},
		types.Column{Name: "b", Kind: types.KindBool},
	)
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	rng := rand.New(rand.NewSource(11))
	tab := storage.NewTable("t", schema)
	for k := 0; k < 5; k++ {
		cb := colstore.NewBuilder(schema.Len())
		n := 300 + rng.Intn(1700)
		for i := 0; i < n; i++ {
			city := types.Str(fmt.Sprintf("c%d", k+rng.Intn(12)))
			if rng.Intn(7) == 0 {
				city = types.Null()
			}
			run := types.Int(int64(i / 40 % 5))
			if i/40%5 == 4 {
				run = types.Null()
			}
			var mix types.Value
			switch rng.Intn(5) {
			case 0:
				mix = types.Bool(rng.Intn(2) == 0)
			case 1:
				mix = types.Float([]float64{math.NaN(), nan2, 1, 0, math.Copysign(0, -1)}[rng.Intn(5)])
			case 2:
				mix = types.Null()
			default:
				mix = types.Int(int64(rng.Intn(3)))
			}
			f := types.Float(float64(rng.Intn(6)) / 4)
			if rng.Intn(9) == 0 {
				f = types.Null()
			}
			cb.Append(types.Row{city, run, mix, f, types.Bool(rng.Intn(3) == 0)}, 1, 0)
		}
		d := cb.Finish()
		if k == 0 && (d.Cols[1].Enc != colstore.EncRLE || d.Cols[2].Enc != colstore.EncValue) {
			t.Fatalf("run/mix encoded %v/%v, want rle/value", d.Cols[1].Enc, d.Cols[2].Enc)
		}
		for off := 0; off < d.N; off += 97 { // blocks are windows on the chunk
			tab.AddBlock(&storage.Block{Chunk: d, Off: off, N: min(97, d.N-off)})
		}
	}
	for _, cols := range [][]string{
		{"city"}, {"run"}, {"mix"}, {"f"}, {"b"},
		{"city", "run"}, {"mix", "f"}, {"b", "mix"},
		{"city", "run", "mix"}, {"b", "f", "city"},
	} {
		phi := types.NewColumnSet(cols...)
		got, err := frequencies(tab, phi)
		if err != nil {
			t.Fatal(err)
		}
		if want := frequenciesByRowKey(tab, phi); !reflect.DeepEqual(got, want) {
			t.Fatalf("φ = %v: frequencies %v, RowKey count %v", cols, got, want)
		}
	}
}
