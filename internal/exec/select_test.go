package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"blinkdb/internal/colstore"
	"blinkdb/internal/cpu"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// hostAVX2 is whether this CPU runs the AVX2 kernels, as found at init,
// before any test flips cpu.AVX2.
var hostAVX2 = cpu.AVX2

// setKernels selects the AVX2 kernels — selection and fold — or the Go
// ones and returns what restores the choice. The scan's workers read
// cpu.AVX2, so a test that flips it must not run beside another: none in
// this package is parallel.
func setKernels(avx2 bool) (restore func()) {
	was := cpu.AVX2
	cpu.AVX2 = avx2
	return func() { cpu.AVX2 = was }
}

// forKernelSets runs f once per kernel set: the AVX2 kernels, skipped where
// this CPU has none, and the Go kernels forced.
func forKernelSets(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, avx2 := range []bool{true, false} {
		name := "generic"
		if avx2 {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			if avx2 && !hostAVX2 {
				t.Skip("this CPU has no AVX2 selection kernels")
			}
			defer setKernels(avx2)()
			f(t)
		})
	}
}

// selectSchema is the schema of selectChunk's table.
var selectSchema = types.NewSchema(
	types.Column{Name: "a", Kind: types.KindInt},    // with NULLs
	types.Column{Name: "b", Kind: types.KindInt},    // without
	types.Column{Name: "s", Kind: types.KindString}, // dictionary "x" "y" "x" "z", with NULLs
	types.Column{Name: "v", Kind: types.KindFloat},
)

// selectChunk hand-builds one chunk of n rows over selectSchema: int
// columns of small values among the ends of int64, and a dictionary column
// whose dictionary holds "x" twice (codes 0 and 2), as a loaded segment's
// may. NULL rows keep a random code or value under their null bit.
func selectChunk(n int, seed int64) *colstore.Data {
	rng := rand.New(rand.NewSource(seed))
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 7, math.MaxInt64 - 1, math.MaxInt64}
	pick := func() int64 {
		if rng.Intn(4) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.Int63n(21) - 10
	}
	words := (n + 63) / 64
	a := colstore.Column{Enc: colstore.EncInt, Ints: make([]int64, n), Nulls: make([]uint64, words), NaNFree: true}
	b := colstore.Column{Enc: colstore.EncInt, Ints: make([]int64, n), NaNFree: true}
	s := colstore.Column{Enc: colstore.EncDict, Dict: []string{"x", "y", "x", "z"}, Codes: make([]uint32, n), Nulls: make([]uint64, words), NaNFree: true}
	v := colstore.Column{Enc: colstore.EncFloat, Floats: make([]float64, n), NaNFree: true}
	for i := 0; i < n; i++ {
		a.Ints[i], b.Ints[i] = pick(), pick()
		s.Codes[i] = uint32(rng.Intn(len(s.Dict)))
		v.Floats[i] = float64(rng.Intn(100))
		if rng.Intn(8) == 0 {
			a.Nulls[i>>6] |= 1 << uint(i&63)
		}
		if rng.Intn(8) == 0 {
			s.Nulls[i>>6] |= 1 << uint(i&63)
		}
	}
	return &colstore.Data{N: n, Cols: []colstore.Column{a, b, s, v}, MetaEnds: []int32{int32(n)}, Rates: []float64{1}, Freqs: []int64{0}}
}

// selectTable lays d out as a table of 100-row blocks without zones, so
// nothing is pruned or proved all-true.
func selectTable(d *colstore.Data) *storage.Table {
	tab := storage.NewTable("t", selectSchema)
	for off := 0; off < d.N; off += 100 {
		tab.AddBlock(&storage.Block{Chunk: d, Off: off, N: min(100, d.N-off), Bytes: 800})
	}
	return tab
}

// selectPreds returns leaves and folded intervals over selectSchema that
// reach every selection kernel: int order tests, = and <> at the ends of
// int64 and everything- and nothing-passing intervals; dictionary = and <>
// against a duplicated, a single and an absent string, and one order test
// (the table path on both kernel sets).
func selectPreds() []types.Predicate {
	leaf := func(col int, op types.CmpOp, v types.Value) *types.CmpPred {
		return &types.CmpPred{Col: selectSchema.Columns[col].Name, ColIdx: col, Op: op, Val: v}
	}
	ops := []types.CmpOp{types.CmpLt, types.CmpLe, types.CmpEq, types.CmpGe, types.CmpGt, types.CmpNe}
	var preds []types.Predicate
	for col := 0; col < 2; col++ {
		for _, c := range []int64{math.MinInt64, -1, 0, 7, math.MaxInt64} {
			for _, op := range ops {
				preds = append(preds, leaf(col, op, types.Int(c)))
			}
		}
		for _, iv := range [][2]int64{
			{math.MinInt64, math.MaxInt64}, {7, 7}, {-3, 5}, {math.MinInt64, -1}, {1, math.MaxInt64},
			{math.MaxInt64, math.MaxInt64}, {math.MinInt64, math.MinInt64}, {100, 200},
		} {
			preds = append(preds, mergeIntervals(&types.AndPred{Kids: []types.Predicate{
				leaf(col, types.CmpGe, types.Int(iv[0])), leaf(col, types.CmpLe, types.Int(iv[1]))}}))
		}
	}
	for _, s := range []string{"x", "y", "w"} {
		for _, op := range []types.CmpOp{types.CmpEq, types.CmpNe, types.CmpLt} {
			preds = append(preds, leaf(2, op, types.Str(s)))
		}
	}
	return preds
}

// TestSelectKernelsMatchGeneric holds the AVX2 selection kernels to the Go
// ones bit for bit: each kernel over lengths 0, 1, 63, 64, 65 and 1,000,
// then whole predicates through selectRows over windows that start off a
// word boundary, and rowsOf at densities 0, 1/64, 0.2, 0.85 and 1 from
// non-zero bases.
func TestSelectKernelsMatchGeneric(t *testing.T) {
	if !hostAVX2 {
		t.Skip("this CPU has no AVX2 selection kernels")
	}
	defer setKernels(true)()
	lengths := []int{0, 1, 63, 64, 65, 1000}
	d := selectChunk(1200, 1)
	ints, dict := d.Cols[0].Ints, &d.Cols[2]

	for _, n := range lengths {
		words := (n + 63) / 64
		want, got := make([]uint64, words), make([]uint64, words)
		for _, iv := range [][2]int64{{math.MinInt64, math.MaxInt64}, {7, 7}, {-3, 5}, {math.MinInt64, -1}, {100, 200}} {
			intsInRangeGo(ints[:n], iv[0], iv[1], want)
			intsInRange(ints[:n], iv[0], iv[1], got)
			if !slices.Equal(got, want) {
				t.Fatalf("intsInRange n=%d [%d, %d]: avx2 %x, go %x", n, iv[0], iv[1], got, want)
			}
		}
		for _, c := range []int{0, 1, 3, noCode} {
			tab := make([]bool, len(dict.Dict))
			if c != noCode {
				tab[c] = true
			}
			codesPass(dict.Codes[:n], tab, want)
			codesEqual(dict.Codes[:n], c, got)
			if !slices.Equal(got, want) {
				t.Fatalf("codesEqual n=%d code %d: avx2 %x, go %x", n, c, got, want)
			}
		}
	}

	sc := &colScratch{}
	for _, pred := range selectPreds() {
		for _, lo := range []int{0, 1, 37, 64, 130} {
			for _, n := range lengths[1:] {
				s := span{d: d, lo: lo, hi: lo + n}
				restore := setKernels(false)
				bm, _ := sc.selectRows(pred, s)
				want := slices.Clone(bm)
				restore()
				if got, _ := sc.selectRows(pred, s); !slices.Equal(got, want) {
					t.Fatalf("%s rows [%d,%d): avx2 %x, go %x", pred, s.lo, s.hi, got, want)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(2))
	for _, n := range lengths {
		for _, density := range []float64{0, 1.0 / 64, 0.2, 0.85, 1} {
			bm := make([]uint64, (n+63)/64)
			for i := 0; i < n; i++ {
				if rng.Float64() < density || density == 1 {
					bm[i>>6] |= 1 << uint(i&63)
				}
			}
			for _, base := range []int{0, 192, 1 << 20} {
				checkRowsOf(t, sc, bm, base)
			}
		}
	}
}

// checkRowsOf holds rowsOfAVX2 — called directly, below the density rowsOf
// hands it work at too — and rowsOf to the Go loop over bm.
func checkRowsOf(t testing.TB, sc *colScratch, bm []uint64, base int) {
	t.Helper()
	n := bitmapCount(bm)
	restore := setKernels(false)
	want := slices.Clone(sc.rowsOf(bm, base, n))
	restore()
	buf := make([]int32, n+8)
	rowsOfAVX2(bm, int32(base), buf)
	if got := buf[:n]; !slices.Equal(got, want) {
		t.Fatalf("rowsOfAVX2 %d bits of %d words from %d: avx2 %v, go %v", n, len(bm), base, got, want)
	}
	if got := sc.rowsOf(bm, base, n); !slices.Equal(got, want) {
		t.Fatalf("rowsOf %d bits of %d words from %d: avx2 %v, go %v", n, len(bm), base, got, want)
	}
}

// FuzzSelectKernels is TestSelectKernelsMatchGeneric's kernel checks with
// the inputs under the fuzzer's control (corpus in
// testdata/fuzz/FuzzSelectKernels): data's bytes become ints near lo, hi
// and the ends of int64, dictionary codes and the bitmap rowsOf expands; c
// picks the code compared against (7: absent) and the rows' base.
func FuzzSelectKernels(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\xfc\xfd\xfe\xff"), int64(-3), int64(5), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int64, c uint8) {
		if !hostAVX2 {
			t.Skip("this CPU has no AVX2 selection kernels")
		}
		defer setKernels(true)()
		if lo > hi {
			lo, hi = hi, lo
		}
		n := len(data)
		xs, codes := make([]int64, n), make([]uint32, n)
		bm := make([]uint64, (n+7)/8)
		for i, b := range data {
			switch off := int64(int8(b)) >> 2; b & 3 {
			case 0:
				xs[i] = lo + off
			case 1:
				xs[i] = hi + off
			case 2:
				xs[i] = math.MinInt64 + int64(b>>2)
			default:
				xs[i] = math.MaxInt64 - int64(b>>2)
			}
			codes[i] = uint32(b % 7)
			bm[i>>3] |= uint64(b) << (8 * uint(i&7))
		}
		words := (n + 63) / 64
		want, got := make([]uint64, words), make([]uint64, words)
		intsInRangeGo(xs, lo, hi, want)
		intsInRange(xs, lo, hi, got)
		if !slices.Equal(got, want) {
			t.Fatalf("intsInRange [%d, %d]: avx2 %x, go %x", lo, hi, got, want)
		}
		code, tab := int(c%8), make([]bool, 7)
		if code == 7 {
			code = noCode
		} else {
			tab[code] = true
		}
		codesPass(codes, tab, want)
		codesEqual(codes, code, got)
		if !slices.Equal(got, want) {
			t.Fatalf("codesEqual code %d: avx2 %x, go %x", code, got, want)
		}
		checkRowsOf(t, &colScratch{}, bm, int(c)<<6)
	})
}

// TestDuplicateDictionaryStrings pins the scan on a chunk whose dictionary
// holds one string under two codes — which blockfile does not refuse —
// against the oracle on both kernel sets: = selects the rows of both codes
// and <> the rows of neither.
func TestDuplicateDictionaryStrings(t *testing.T) {
	d := selectChunk(1200, 3)
	tab := selectTable(d)
	forKernelSets(t, func(t *testing.T) {
		for _, src := range []string{
			`SELECT COUNT(*), SUM(v) FROM t WHERE s = 'x'`,
			`SELECT COUNT(*), SUM(v) FROM t WHERE s <> 'x'`,
			`SELECT COUNT(*), AVG(v) FROM t WHERE s = 'x' AND b < 5 GROUP BY s`,
			`SELECT COUNT(*) FROM t WHERE s <> 'x' OR a = 0 GROUP BY s`,
		} {
			checkOracle(t, src, compile(t, src, selectSchema), FromTable(tab), nil)
		}
		col := &d.Cols[2]
		sc := &colScratch{}
		for _, op := range []types.CmpOp{types.CmpEq, types.CmpNe} {
			pred := &types.CmpPred{Col: "s", ColIdx: 2, Op: op, Val: types.Str("x")}
			bm, _ := sc.selectRows(pred, span{d: d, lo: 0, hi: d.N})
			for i := 0; i < d.N; i++ {
				if col.IsNull(i) {
					continue
				}
				isX := col.Codes[i] == 0 || col.Codes[i] == 2
				if got := bm[i>>6]&(1<<uint(i&63)) != 0; got != (isX == (op == types.CmpEq)) {
					t.Fatalf("s %v 'x': row %d (code %d) selected=%v", op, i, col.Codes[i], got)
				}
			}
		}
	})
}

// BenchmarkSelectKernels times each AVX2 selection kernel against its Go
// kernel over 17,408 rows (272 words) shaped like the repo benchmark's
// sessions table: the date interval dt >= 70 AND dt < 920 (85% pass), a
// dictionary = over 40 skewed strings, and rowsOf at 85% and 20% density.
func BenchmarkSelectKernels(b *testing.B) {
	const rows = 17408
	rng := rand.New(rand.NewSource(1))
	dt := colstore.Column{Enc: colstore.EncInt, Ints: make([]int64, rows), NaNFree: true}
	dev := colstore.Column{Enc: colstore.EncDict, Codes: make([]uint32, rows), NaNFree: true}
	for j := 0; j < 40; j++ {
		dev.Dict = append(dev.Dict, fmt.Sprintf("device%02d", j))
	}
	for i := 0; i < rows; i++ {
		dt.Ints[i] = rng.Int63n(1000)
		dev.Codes[i] = uint32(40 * rng.Float64() * rng.Float64() * rng.Float64())
	}
	d := &colstore.Data{N: rows, Cols: []colstore.Column{dt, dev}, MetaEnds: []int32{rows}, Rates: []float64{1}, Freqs: []int64{0}}
	interval := mergeIntervals(&types.AndPred{Kids: []types.Predicate{
		&types.CmpPred{Col: "dt", ColIdx: 0, Op: types.CmpGe, Val: types.Int(70)},
		&types.CmpPred{Col: "dt", ColIdx: 0, Op: types.CmpLt, Val: types.Int(920)},
	}})
	eq := &types.CmpPred{Col: "device", ColIdx: 1, Op: types.CmpEq, Val: types.Str("device00")}
	bitmapAt := func(density float64) []uint64 {
		bm := make([]uint64, rows/64)
		for i := 0; i < rows; i++ {
			if rng.Float64() < density {
				bm[i>>6] |= 1 << uint(i&63)
			}
		}
		return bm
	}
	bm85, bm20 := bitmapAt(0.85), bitmapAt(0.2)

	sc := &colScratch{}
	dst := make([]uint64, rows/64)
	kernels := []struct {
		name string
		run  func()
	}{
		{"interval", func() { evalPred(interval, d, 0, rows, dst, sc) }},
		{"dict-eq", func() { evalPred(eq, d, 0, rows, dst, sc) }},
		{"rowsOf85", func() { sc.rowsOf(bm85, 64, bitmapCount(bm85)) }},
		{"rowsOf20", func() { sc.rowsOf(bm20, 64, bitmapCount(bm20)) }},
	}
	for _, k := range kernels {
		for _, avx2 := range []bool{false, true} {
			name := k.name + "/go"
			if avx2 {
				name = k.name + "/avx2"
			}
			b.Run(name, func(b *testing.B) {
				if avx2 && !hostAVX2 {
					b.Skip("this CPU has no AVX2 selection kernels")
				}
				defer setKernels(avx2)()
				k.run() // warm: the scratch buffers and the verdict table
				b.SetBytes(rows)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.run()
				}
			})
		}
	}
}

// foldChunk hand-builds one chunk of n rows for the masked folds: a
// dictionary column g holding "a" under two codes, a six-string dictionary
// column h, a float measure v (−0 included) and an int code to filter on,
// none with NULLs; and metadata runs of 37 to 700 rows whose stratum
// frequencies keep changing, so spans straddle keys.
func foldChunk(n int, seed int64) (*colstore.Data, *types.Schema) {
	rng := rand.New(rand.NewSource(seed))
	g := colstore.Column{Enc: colstore.EncDict, Dict: []string{"a", "b", "a", "c"}, Codes: make([]uint32, n), NaNFree: true}
	h := colstore.Column{Enc: colstore.EncDict, Dict: []string{"p", "q", "r", "s", "t", "u"}, Codes: make([]uint32, n), NaNFree: true}
	v := colstore.Column{Enc: colstore.EncFloat, Floats: make([]float64, n), NaNFree: true}
	code := colstore.Column{Enc: colstore.EncInt, Ints: make([]int64, n), NaNFree: true}
	for i := 0; i < n; i++ {
		g.Codes[i], h.Codes[i] = uint32(rng.Intn(len(g.Dict))), uint32(rng.Intn(len(h.Dict)))
		v.Floats[i] = rng.NormFloat64() * 1e3
		if rng.Intn(50) == 0 {
			v.Floats[i] = math.Copysign(0, -1)
		}
		code.Ints[i] = int64(rng.Intn(1000))
	}
	d := &colstore.Data{N: n, Cols: []colstore.Column{g, h, v, code}}
	for end := 0; end < n; {
		end = min(n, end+37+rng.Intn(700))
		d.MetaEnds = append(d.MetaEnds, int32(end))
		d.Rates = append(d.Rates, 1)
		d.Freqs = append(d.Freqs, int64(50*rng.Intn(12)))
	}
	return d, types.NewSchema(
		types.Column{Name: "g", Kind: types.KindString},
		types.Column{Name: "h", Kind: types.KindString},
		types.Column{Name: "v", Kind: types.KindFloat},
		types.Column{Name: "code", Kind: types.KindInt},
	)
}

// TestMaskedFoldsMatchOracle holds the masked folds — a span at least a
// quarter selected folds from its selection bitmap: ungrouped, per code of
// a small dictionary, and, when two codes share a string, from the listed
// rows after all — to the oracle, at densities on both sides of the
// quarter, over a table and a two-delta view whose spans straddle keys, on
// both kernel sets.
func TestMaskedFoldsMatchOracle(t *testing.T) {
	d, schema := foldChunk(5000, 6)
	tab := storage.NewTable("t", schema)
	for off := 0; off < d.N; off += 100 {
		tab.AddBlock(&storage.Block{Chunk: d, Off: off, N: min(100, d.N-off), Bytes: 800})
	}
	forKernelSets(t, func(t *testing.T) {
		for _, cut := range []int{20, 200, 260, 900, 1000} {
			for _, src := range []string{
				`SELECT COUNT(*), SUM(v), AVG(v) FROM t WHERE code < %d`,
				`SELECT COUNT(*), AVG(v) FROM t WHERE code < %d GROUP BY g`,
				`SELECT SUM(v), COUNT(*) FROM t WHERE code < %d GROUP BY h`,
			} {
				src = fmt.Sprintf(src, cut)
				p := compile(t, src, schema)
				if !p.foldsMasked(d) {
					t.Fatalf("%s: the masked folds do not take this plan", src)
				}
				checkOracle(t, src, p, FromTable(tab), nil)
				checkOracle(t, src+" view", p, viewOf(schema, tab.Blocks, 120, 400), nil)
			}
		}
	})
}
