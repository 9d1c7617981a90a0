package stats

import (
	"math"
	"math/rand"
	"testing"

	"blinkdb/internal/cpu"
)

// sameBits reports whether two floats are the same bits, any NaN matching
// any other: x86 and Go may quiet a NaN's payload differently, and no
// answer keeps one.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

func sameLanes(a, b *Moments) bool {
	for l := range a.SumX {
		if !sameBits(a.SumX[l], b.SumX[l]) || !sameBits(a.SumXX[l], b.SumXX[l]) {
			return false
		}
	}
	return a.N == b.N
}

// edgeCodes are the 1-byte dictionary codes the fold tests use, in order:
// a column of n codes holds the first n, and the next is checked absent.
// They lead with the byte's edges and its sign bit, where a signed compare
// could tell two codes apart wrongly.
var edgeCodes = []uint8{0, 255, 127, 128, 1, 254, 126, 129, 2}

// foldCase is one input of the fold kernels: a column, its dictionary
// codes (the first ncodes edgeCodes), a selection bitmap over it (bit j is
// row j) and a row range.
type foldCase struct {
	xs     []float64
	codes  []uint8
	bm     []uint64
	lo, hi int
	ncodes int
}

// checkFoldKernels holds the AVX2 fold kernels — reached through the
// entry points, which hand them the whole bitmap words inside [lo, hi) — to
// the Go ones: the masked fold, the per-code masked fold and the per-code
// count, for every code and one absent, bit for bit, lanes starting from
// non-zero sums.
func checkFoldKernels(t testing.TB, fc foldCase) {
	t.Helper()
	seed := Moments{SumX: [Lanes]float64{1, -2, 0.5, 3}, SumXX: [Lanes]float64{4, 1, 0.25, 9}}
	run := func(avx2 bool, f func(m *Moments)) Moments {
		was := cpu.AVX2
		cpu.AVX2 = avx2
		defer func() { cpu.AVX2 = was }()
		m := seed
		f(&m)
		return m
	}
	want := run(false, func(m *Moments) { foldMasked(m, fc.xs, fc.bm, 0, fc.lo, fc.hi) })
	if got := run(true, func(m *Moments) { foldMasked(m, fc.xs, fc.bm, 0, fc.lo, fc.hi) }); !sameLanes(&want, &got) {
		t.Fatalf("masked fold rows [%d,%d): avx2 %+v, go %+v", fc.lo, fc.hi, got, want)
	}
	for _, c := range edgeCodes[:fc.ncodes+1] {
		want := run(false, func(m *Moments) { FoldCodeMasked(m, fc.xs, fc.codes, c, fc.bm, 0, fc.lo, fc.hi) })
		if got := run(true, func(m *Moments) { FoldCodeMasked(m, fc.xs, fc.codes, c, fc.bm, 0, fc.lo, fc.hi) }); !sameLanes(&want, &got) {
			t.Fatalf("per-code fold code %d rows [%d,%d): avx2 %+v, go %+v", c, fc.lo, fc.hi, got, want)
		}
		var n [2]int
		for k, avx2 := range []bool{false, true} {
			run(avx2, func(*Moments) { n[k] = CountCodeMasked(fc.codes, c, fc.bm, 0, fc.lo, fc.hi) })
		}
		if n[0] != n[1] {
			t.Fatalf("count code %d rows [%d,%d): avx2 %d, go %d", c, fc.lo, fc.hi, n[1], n[0])
		}
	}
}

// TestFoldKernelsMatchGeneric holds the AVX2 fold kernels to the Go ones
// bit for bit over lengths 0, 1, 63, 64, 65 and 1,000, ranges starting on
// and off a lane and a bitmap word, densities 0, 1/64, 0.25, 0.85 and 1,
// columns holding NaN, ±Inf and −0, and one to eight codes among 0, 127,
// 128 and 255.
func TestFoldKernelsMatchGeneric(t *testing.T) {
	if !hostAVX2 {
		t.Skip("this CPU has no AVX2 fold kernels")
	}
	rng := rand.New(rand.NewSource(8))
	const rows = 1300
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e300, -1e-300}
	for _, special := range []bool{false, true} {
		xs := make([]float64, rows)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			if special && rng.Intn(40) == 0 {
				xs[i] = specials[rng.Intn(len(specials))]
			}
		}
		for ncodes := 1; ncodes <= 8; ncodes++ {
			codes := make([]uint8, rows)
			for i := range codes {
				codes[i] = edgeCodes[rng.Intn(ncodes)]
			}
			for _, density := range []float64{0, 1.0 / 64, 0.25, 0.85, 1} {
				bm := make([]uint64, rows/64+1)
				for i := 0; i < rows; i++ {
					if density == 1 || rng.Float64() < density {
						bm[i>>6] |= 1 << uint(i&63)
					}
				}
				for _, lo := range []int{0, 1, 3, 64, 67, 130} {
					for _, n := range []int{0, 1, 63, 64, 65, 1000} {
						checkFoldKernels(t, foldCase{xs, codes, bm, lo, lo + n, ncodes})
					}
				}
			}
		}
	}
}

// FuzzFoldKernels is TestFoldKernelsMatchGeneric with the inputs under the
// fuzzer's control (corpus in testdata/fuzz/FuzzFoldKernels): each byte of
// data is a row — its low bits pick a special value (NaN, ±Inf, −0) or a
// small number, a code among edgeCodes and whether the row is selected —
// and lo and span pick the rows folded.
func FuzzFoldKernels(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\xfc\xfd\xfe\xff\x10\x37\x5a\x81"), uint16(3), uint16(70), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, lo, span uint16, ncodes uint8) {
		if !hostAVX2 {
			t.Skip("this CPU has no AVX2 fold kernels")
		}
		n := len(data)
		xs, codes := make([]float64, n), make([]uint8, n)
		bm := make([]uint64, n/64+1)
		nc := 1 + int(ncodes%8)
		for i, b := range data {
			switch b & 7 {
			case 0:
				xs[i] = math.NaN()
			case 1:
				xs[i] = math.Inf(int(b>>7)*2 - 1)
			case 2:
				xs[i] = math.Copysign(0, -1)
			default:
				xs[i] = float64(int8(b)) / 3
			}
			codes[i] = edgeCodes[int(b>>3)%nc]
			if b&0x40 != 0 {
				bm[i>>6] |= 1 << uint(i&63)
			}
		}
		from := min(int(lo), n)
		checkFoldKernels(t, foldCase{xs, codes, bm, from, min(n, from+int(span)), nc})
	})
}

// BenchmarkFoldKernels times each fold kernel, AVX2 against Go, over 17,408
// rows (272 words) at the density of the repo benchmark's date range (85%
// selected), with a 4-valued dictionary: the masked fold, one code's
// per-code fold and its count.
func BenchmarkFoldKernels(b *testing.B) {
	const rows = 17408
	rng := rand.New(rand.NewSource(1))
	xs, codes := make([]float64, rows), make([]uint8, rows)
	bm := make([]uint64, rows/64)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 60
		codes[i] = uint8(rng.Intn(4))
		if rng.Float64() < 0.85 {
			bm[i>>6] |= 1 << uint(i&63)
		}
	}
	var m Moments
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"masked", func() { foldMasked(&m, xs, bm, 0, 0, rows) }},
		{"per-code", func() { FoldCodeMasked(&m, xs, codes, 1, bm, 0, 0, rows) }},
		{"count", func() { CountCodeMasked(codes, 1, bm, 0, 0, rows) }},
	} {
		for _, avx2 := range []bool{false, true} {
			name := k.name + "/go"
			if avx2 {
				name = k.name + "/avx2"
			}
			b.Run(name, func(b *testing.B) {
				if avx2 && !hostAVX2 {
					b.Skip("this CPU has no AVX2 fold kernels")
				}
				was := cpu.AVX2
				cpu.AVX2 = avx2
				defer func() { cpu.AVX2 = was }()
				b.SetBytes(rows)
				for i := 0; i < b.N; i++ {
					k.run()
				}
			})
		}
	}
}
