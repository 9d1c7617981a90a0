package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"blinkdb/internal/cpu"
	"blinkdb/internal/sample"
	"blinkdb/internal/storage"
)

var accKinds = []struct {
	kind AggKind
	p    float64
}{
	{AggCount, 0}, {AggSum, 0}, {AggAvg, 0}, {AggQuantile, 0.5}, {AggQuantile, 0.9},
}

// hostAVX2 is whether this CPU runs the AVX2 fold kernels, as found at
// init, before any test flips cpu.AVX2.
var hostAVX2 = cpu.AVX2

// forKernels runs f once per fold kernel set: the AVX2 kernels, skipped
// where this CPU has none, and the Go kernels forced. No test in this
// package runs in parallel, so flipping cpu.AVX2 races nothing.
func forKernels(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, avx2 := range []bool{true, false} {
		name := "generic"
		if avx2 {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			if avx2 && !hostAVX2 {
				t.Skip("this CPU has no AVX2 fold kernels")
			}
			was := cpu.AVX2
			cpu.AVX2 = avx2
			defer func() { cpu.AVX2 = was }()
			f(t)
		})
	}
}

// keyMix draws k distinct class keys: table keys (weights 1/rate, with a few
// invalid rates — 0, negative, above 1, NaN — that weigh 1 mixed in when
// invalid is set) or, with freq set, stratum frequencies raised to a floor.
func keyMix(rng *rand.Rand, k int, invalid, freq bool) []Key {
	keys := make([]Key, 0, k+4)
	for len(keys) < k {
		if freq {
			keys = append(keys, FreqKey(int64(rng.Intn(400)), 120))
		} else {
			keys = append(keys, RateKey(float64(1+len(keys))/float64(k+rng.Intn(3))))
		}
	}
	if invalid {
		for _, r := range []float64{0, -3, 2, math.NaN()} {
			keys = append(keys, RateKey(r))
		}
	}
	return keys
}

// sameAcc holds two accumulators to the same state: every class, its
// count and each of its lanes bit for bit, and (which covers a quantile's
// retained values) the same Estimate at both weighings.
func sameAcc(t *testing.T, label string, want, got *Acc) {
	t.Helper()
	if wc, gc := classList(&want.cs), classList(&got.cs); !reflect.DeepEqual(wc, gc) {
		t.Fatalf("%s: classes differ\nper-row %+v\nbatch   %+v", label, wc, gc)
	}
	for _, ws := range []Weights{{}, {Cap: 150}} {
		if we, ge := want.EstimateZ(0.95, 1.96, ws), got.EstimateZ(0.95, 1.96, ws); we != ge {
			t.Fatalf("%s at %+v: estimates differ\nper-row %+v\nbatch   %+v", label, ws, we, ge)
		}
	}
}

// classList returns the classes in ascending key.
func classList(cs *classes) []class {
	var out []class
	cs.each(func(c *class) { out = append(out, *c) })
	return out
}

// TestAccBatchFormsMatchAdd pins the contract the scan kernels rely on:
// every way of adding rows — a range of a float or int column, rows picked
// by index, values gathered with their row numbers, rows picked by a
// selection bitmap, a bare count, moments folded by dictionary code from
// an index list or from a bitmap — leaves an Acc exactly as AddRow does
// adding the same rows one at a time, each to the lane of its row number,
// for every aggregate kind, whether the rows share one key, a few, or
// nearly one each, table keys or frequency keys, on both kernel sets.
func TestAccBatchFormsMatchAdd(t *testing.T) {
	forKernels(t, func(t *testing.T) {
		const n = 3000
		for _, nkeys := range []int{1, 5, 1000} {
			for _, mix := range []struct{ invalid, freq bool }{{false, false}, {true, false}, {false, true}} {
				checkBatchForms(t, n, keyMix(rand.New(rand.NewSource(int64(nkeys))), nkeys, mix.invalid, mix.freq))
			}
		}
	})
}

func checkBatchForms(t *testing.T, n int, keys []Key) {
	rng := rand.New(rand.NewSource(int64(len(keys))))
	const base = 64 // the bitmaps start one word into the column
	floats, ints, codes := make([]float64, n+base), make([]int64, n+base), make([]uint8, n+base)
	for i := range floats {
		floats[i] = rng.NormFloat64() * 100
		ints[i] = int64(rng.Intn(2000) - 500)
		codes[i] = uint8(rng.Intn(7))
	}
	// The rows arrive as the scan hands them over: stretches under one key,
	// of which a random ascending subset is selected, also as a bitmap.
	type stretch struct {
		lo, hi int
		k      Key
		idxs   []int32
	}
	bm := make([]uint64, (n+base+63)/64)
	var stretches []stretch
	for lo := base; lo < n+base; {
		hi := min(n+base, lo+1+rng.Intn(3*n/len(keys)))
		s := stretch{lo: lo, hi: hi, k: keys[rng.Intn(len(keys))]}
		for i := lo; i < hi; i++ {
			if rng.Intn(4) > 0 {
				s.idxs = append(s.idxs, int32(i))
				bm[i>>6] |= 1 << uint(i&63)
			}
		}
		stretches = append(stretches, s)
		lo = hi
	}
	for _, kd := range accKinds {
		label := func(form string) string { return kd.kind.String() + " " + form }
		fresh := func() (*Acc, *Acc) { return NewAcc(kd.kind, kd.p), NewAcc(kd.kind, kd.p) }

		want, got := fresh()
		wantI, gotI := fresh()
		for _, s := range stretches {
			for i := s.lo; i < s.hi; i++ {
				want.AddRow(floats[i], i, s.k)
				wantI.AddRow(float64(ints[i]), i, s.k)
			}
			AddRange(got, floats, s.lo, s.hi, s.k)
			AddRange(gotI, ints, s.lo, s.hi, s.k)
		}
		sameAcc(t, label("AddRange of floats"), want, got)
		sameAcc(t, label("AddRange of ints"), wantI, gotI)

		want, got = fresh()
		wantI, gotI = fresh()
		wantM, gotM := fresh()
		wantV, gotV := fresh()
		for _, s := range stretches {
			xs := make([]float64, len(s.idxs))
			for j, i := range s.idxs {
				want.AddRow(floats[i], int(i), s.k)
				wantI.AddRow(float64(ints[i]), int(i), s.k)
				wantM.AddRow(floats[i], int(i), s.k)
				wantV.AddRow(floats[i], int(i), s.k)
				xs[j] = floats[i]
			}
			AddIndexed(got, floats, s.idxs, s.k)
			AddIndexed(gotI, ints, s.idxs, s.k)
			AddMasked(gotM, floats, bm, 0, s.lo, s.hi, len(s.idxs), s.k)
			AddValues(gotV, xs, s.idxs, s.k)
		}
		sameAcc(t, label("AddIndexed floats"), want, got)
		sameAcc(t, label("AddIndexed ints"), wantI, gotI)
		sameAcc(t, label("AddMasked"), wantM, gotM)
		sameAcc(t, label("AddValues"), wantV, gotV)

		if kd.kind == AggCount {
			want, got = fresh()
			for _, s := range stretches {
				for _, i := range s.idxs {
					want.AddRow(1, int(i), s.k)
				}
				got.AddCount(len(s.idxs), s.k)
			}
			sameAcc(t, label("AddCount"), want, got)
		}
		if kd.kind == AggQuantile || kd.kind == AggCount {
			continue // a quantile retains values, a COUNT adds none: neither folds by code
		}
		wants, gots, gotsM := make([]*Acc, 7), make([]*Acc, 7), make([]*Acc, 7)
		for c := range wants {
			wants[c], gots[c] = fresh()
			gotsM[c] = NewAcc(kd.kind, kd.p)
		}
		slots := make([]*Moments, 7)
		for _, s := range stretches {
			cnt := make([]int, 7)
			for _, i := range s.idxs {
				wants[codes[i]].AddRow(floats[i], int(i), s.k)
				cnt[codes[i]]++
			}
			for c, m := range cnt {
				if got := CountCodeMasked(codes, uint8(c), bm, 0, s.lo, s.hi); got != m {
					t.Fatalf("CountCodeMasked code %d rows [%d,%d): %d, want %d", c, s.lo, s.hi, got, m)
				}
				if m > 0 {
					slots[c] = gots[c].Slot(m, s.k)
					FoldCodeMasked(gotsM[c].Slot(m, s.k), floats, codes, uint8(c), bm, 0, s.lo, s.hi)
				}
			}
			FoldByCode(slots, codes, floats, s.idxs)
		}
		for c := range wants {
			sameAcc(t, label("Slot+FoldByCode"), wants[c], gots[c])
			sameAcc(t, label("Slot+FoldCodeMasked"), wants[c], gotsM[c])
		}
	}
}

// TestAccLanes pins the lane contract by hand: row r adds x and x·x to lane
// r mod 4, rows of one lane in row order, and the lanes combine as
// (l0+l1)+(l2+l3) — so a row's lane, not the call that added it, decides
// where it lands.
func TestAccLanes(t *testing.T) {
	a := NewAcc(AggSum, 0)
	for r, x := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9} {
		a.AddRow(x, 100+r, 1)
	}
	m := a.cs.first.Moments
	if want := [Lanes]float64{1 + 5 + 9, 2 + 6, 3 + 7, 4 + 8}; m.SumX != want {
		t.Fatalf("lanes %v, want %v", m.SumX, want)
	}
	if want := [Lanes]float64{1 + 25 + 81, 4 + 36, 9 + 49, 16 + 64}; m.SumXX != want {
		t.Fatalf("square lanes %v, want %v", m.SumXX, want)
	}
	// The combine order is visible where float addition is not associative.
	b := NewAcc(AggSum, 0)
	l := []float64{1e16, 1, -1e16, 1}
	for r, x := range l {
		b.AddRow(x, r, 1)
	}
	if got, want, rowOrder := b.Estimate(0.95).Point, (l[0]+l[1])+(l[2]+l[3]), ((l[0]+l[1])+l[2])+l[3]; got != want || got == rowOrder {
		t.Fatalf("lanes combine to %v, want (l0+l1)+(l2+l3) = %v, not the row-order sum %v", got, want, rowOrder)
	}
	// Splitting the same rows between calls, at any points, moves no bit.
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 1e3
	}
	whole := NewAcc(AggAvg, 0)
	AddRange(whole, xs, 0, len(xs), 1)
	for trial := 0; trial < 20; trial++ {
		split := NewAcc(AggAvg, 0)
		for lo := 0; lo < len(xs); {
			hi := min(len(xs), lo+rng.Intn(37))
			AddRange(split, xs, lo, hi, 1)
			lo = hi
		}
		sameAcc(t, "split", whole, split)
	}
}

// TestWeightsMatchRateForCap: a frequency key read at cap K weighs exactly
// what the scan used to derive from a row's rate under that cap, 1/rate for
// a rate in (0, 1) and 1 otherwise, for every stratum frequency around the
// caps and every floor below the cap; and a key read as a weight is itself.
func TestWeightsMatchRateForCap(t *testing.T) {
	for _, k := range []int64{1, 7, 100, 3000} {
		for _, floor := range []int64{1, k / 2, k} {
			for _, f := range []int64{0, 1, floor - 1, floor, floor + 1, k - 1, k, k + 1, 3 * k, 1 << 40} {
				rate := sample.RateForCap(storage.RowMeta{StratumFreq: f}, k)
				want := 1.0
				if rate > 0 && rate < 1 {
					want = 1 / rate
				}
				if got := (Weights{Cap: k}).Of(FreqKey(f, max(floor, 1))); got != want {
					t.Fatalf("K=%d floor=%d f=%d: weight %v, the rate's %v", k, floor, f, got, want)
				}
			}
		}
	}
	for _, r := range []float64{1, 0.5, 0.3, 1e-9, 0, -1, 2} {
		if got, want := (Weights{}).Of(RateKey(r)), float64(RateKey(r)); got != want {
			t.Fatalf("rate %v: weight %v, want %v", r, got, want)
		}
	}
}

// rowSums are the six weighted sums as the accumulator kept them before it
// kept moments per class: one weight multiplication per row and sum.
type rowSums struct{ w, w2, wx, wx2, ww1, ww1x2 float64 }

func (s *rowSums) add(x, rate float64) {
	w := 1 / rate
	s.w += w
	s.w2 += w * w
	s.wx += w * x
	s.wx2 += w * x * x
	s.ww1 += w * (w - 1)
	s.ww1x2 += w * (w - 1) * x * x
}

// TestAccDerivedMoments holds the sums Estimate derives from per-class raw
// moments to the per-row weighted sums they replace: exactly where float64
// arithmetic is exact (small integers, dyadic rates), within 1e-12 relative
// on arbitrary inputs — a different summation order, the same quantity.
func TestAccDerivedMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dyadic := []float64{1, 0.5, 0.25, 0.125, 0.0625}
	for trial := 0; trial < 50; trial++ {
		exact, loose := NewAcc(AggAvg, 0), NewAcc(AggSum, 0)
		var exactRef, looseRef rowSums
		for i, n := 0, 1+rng.Intn(2000); i < n; i++ {
			x, r := float64(rng.Intn(300)-100), dyadic[rng.Intn(len(dyadic))]
			exact.AddRow(x, i, RateKey(r))
			exactRef.add(x, r)
			x, r = rng.NormFloat64()*1e3, math.Min(1, rng.Float64()+0.01)
			loose.AddRow(x, i, RateKey(r))
			looseRef.add(x, r)
		}
		s := exact.sums(Weights{})
		if got := (rowSums{s.w, s.w2, s.wx, s.wx2, s.ww1, s.ww1x2}); got != exactRef {
			t.Fatalf("trial %d: dyadic inputs: derived %+v, per-row %+v", trial, got, exactRef)
		}
		s = loose.sums(Weights{})
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"Σw", s.w, looseRef.w}, {"Σw²", s.w2, looseRef.w2}, {"Σwx", s.wx, looseRef.wx},
			{"Σwx²", s.wx2, looseRef.wx2}, {"Σw(w−1)", s.ww1, looseRef.ww1}, {"Σw(w−1)x²", s.ww1x2, looseRef.ww1x2},
		} {
			// Σwx cancels; its error is relative to the magnitudes summed.
			scale := math.Max(math.Abs(c.want), math.Sqrt(looseRef.wx2*looseRef.w))
			if math.Abs(c.got-c.want) > 1e-12*scale {
				t.Fatalf("trial %d: %s derived %v, per-row %v", trial, c.name, c.got, c.want)
			}
		}
	}
}

// TestClassTallyMergeOrder: which rows an accumulator saw under which key —
// the (key, n) pairs — is the same multiset however partial accumulators
// are merged, and so is a Tally's sum at any weighing, bit for bit: counts
// add exactly.
func TestClassTallyMergeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := append(keyMix(rng, 40, true, false), keyMix(rng, 40, false, true)...)
	parts, tallies := make([]*Acc, 9), make([]*Tally, 9)
	for p := range parts {
		parts[p], tallies[p] = NewAcc(AggSum, 0), new(Tally)
		for i, n := 0, rng.Intn(500); i < n; i++ {
			k := keys[rng.Intn(len(keys))]
			parts[p].AddRow(rng.NormFloat64(), i, k)
			tallies[p].Add(k, 1)
		}
	}
	counts := func(a *Acc) (out [][2]float64) {
		a.cs.each(func(c *class) { out = append(out, [2]float64{float64(c.k), float64(c.N)}) })
		return out
	}
	fold := func(order []int) (*Acc, *Tally) {
		a, ta := NewAcc(AggSum, 0), new(Tally)
		for _, p := range order {
			a.Merge(parts[p])
			ta.Merge(tallies[p])
		}
		return a, ta
	}
	order := rng.Perm(len(parts))
	want, wantTally := fold(order)
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		got, gotTally := fold(order)
		if !reflect.DeepEqual(counts(want), counts(got)) {
			t.Fatalf("order %v: class counts differ\nwant %v\ngot  %v", order, counts(want), counts(got))
		}
		for _, ws := range []Weights{{}, {Cap: 200}} {
			if w, g := wantTally.Sum(ws), gotTally.Sum(ws); w != g || math.IsNaN(g) {
				t.Fatalf("order %v: tally sums %v at %+v, first order %v", order, g, ws, w)
			}
		}
	}
	// A tally built row by row and one built stretch by stretch agree.
	var byRow, byStretch Tally
	for i := 0; i < 1000; i++ {
		byRow.Add(4, 1)
		byRow.Add(1.5, 1)
	}
	byStretch.Add(1.5, 1000)
	byStretch.Add(4, 1000)
	if byRow.Sum(Weights{}) != byStretch.Sum(Weights{}) || byRow.Sum(Weights{}) != 5500 {
		t.Fatalf("tally sums %v and %v, want 5500", byRow.Sum(Weights{}), byStretch.Sum(Weights{}))
	}
}

// TestFinalizeReadOnly: estimating changes nothing an accumulator holds —
// not a quantile's retained values, which it used to sort in place — so one
// accumulator finalized at two caps at once, from two goroutines (run under
// -race in CI), answers each cap as it does alone.
func TestFinalizeReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, kd := range accKinds {
		a := NewAcc(kd.kind, kd.p)
		for i := 0; i < 2000; i++ {
			a.AddRow(math.Round(rng.NormFloat64()*20), i, FreqKey(int64(rng.Intn(600)), 50))
		}
		before := a.Clone()
		caps := []Weights{{Cap: 50}, {Cap: 400}}
		want := []Estimate{a.EstimateZ(0.95, 1.96, caps[0]), a.EstimateZ(0.95, 1.96, caps[1])}
		var wg sync.WaitGroup
		got := make([]Estimate, 2*len(caps))
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = a.EstimateZ(0.95, 1.96, caps[g%len(caps)])
			}(g)
		}
		wg.Wait()
		for g, e := range got {
			if e != want[g%len(caps)] {
				t.Fatalf("%s at %+v: concurrent estimate %+v, alone %+v", kd.kind, caps[g%len(caps)], e, want[g%len(caps)])
			}
		}
		if !reflect.DeepEqual(a, before) {
			t.Fatalf("%s: finalizing changed the accumulator", kd.kind)
		}
	}
}

// BenchmarkAccFold measures the ways a scan adds 32,768 rows, 85% of them
// selected, to an accumulator: a row at a time, and in the batch forms.
func BenchmarkAccFold(b *testing.B) {
	const n = 1 << 15
	rng := rand.New(rand.NewSource(1))
	xs, codes := make([]float64, n), make([]uint16, n)
	bm := make([]uint64, n/64)
	var idxs []int32
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 60
		codes[i] = uint16(rng.Intn(4))
		if rng.Float64() < 0.85 {
			idxs = append(idxs, int32(i))
			bm[i>>6] |= 1 << uint(i&63)
		}
	}
	b.Run("AddRow", func(b *testing.B) {
		a := NewAcc(AggAvg, 0)
		for i := 0; i < b.N; i++ {
			for _, ri := range idxs {
				a.AddRow(xs[ri], int(ri), 10)
			}
		}
	})
	b.Run("AddIndexed", func(b *testing.B) {
		a := NewAcc(AggAvg, 0)
		for i := 0; i < b.N; i++ {
			AddIndexed(a, xs, idxs, 10)
		}
	})
	b.Run("AddMasked", func(b *testing.B) {
		a := NewAcc(AggAvg, 0)
		for i := 0; i < b.N; i++ {
			AddMasked(a, xs, bm, 0, 0, n, len(idxs), 10)
		}
	})
	b.Run("AddRange", func(b *testing.B) {
		a := NewAcc(AggAvg, 0)
		for i := 0; i < b.N; i++ {
			AddRange(a, xs, 0, n, 10)
		}
	})
	b.Run("AddCount", func(b *testing.B) {
		a := NewAcc(AggCount, 0)
		for i := 0; i < b.N; i++ {
			a.AddCount(len(idxs), 10)
		}
	})
	b.Run("FoldByCode", func(b *testing.B) {
		slots := make([]*Moments, 4)
		for c := range slots {
			slots[c] = NewAcc(AggAvg, 0).Slot(1, 10)
		}
		for i := 0; i < b.N; i++ {
			FoldByCode(slots, codes, xs, idxs)
		}
	})
}
