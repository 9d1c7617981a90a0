package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

var accKinds = []struct {
	kind AggKind
	p    float64
}{
	{AggCount, 0}, {AggSum, 0}, {AggAvg, 0}, {AggQuantile, 0.5}, {AggQuantile, 0.9},
}

// rateMix draws k distinct sampling rates in (0, 1], with a few invalid ones
// (0, negative, above 1, NaN: all weigh 1) mixed in when invalid is set.
func rateMix(rng *rand.Rand, k int, invalid bool) []float64 {
	rates := make([]float64, 0, k+4)
	for len(rates) < k {
		rates = append(rates, float64(1+len(rates))/float64(k+rng.Intn(3)))
	}
	if invalid {
		rates = append(rates, 0, -3, 2, math.NaN())
	}
	return rates
}

// sameAcc holds two accumulators to the same state: every derived sum bit
// for bit, the same classes, and (which covers a quantile's retained
// values) the same Estimate.
func sameAcc(t *testing.T, label string, want, got *Acc) {
	t.Helper()
	if ws, gs := want.sums(), got.sums(); ws != gs {
		t.Fatalf("%s: derived sums differ\nper-row %+v\nbatch   %+v", label, ws, gs)
	}
	if wc, gc := classList(&want.cs), classList(&got.cs); !reflect.DeepEqual(wc, gc) {
		t.Fatalf("%s: classes differ\nper-row %+v\nbatch   %+v", label, wc, gc)
	}
	if we, ge := want.Estimate(0.95), got.Estimate(0.95); we != ge {
		t.Fatalf("%s: estimates differ\nper-row %+v\nbatch   %+v", label, we, ge)
	}
}

// classList returns the classes in ascending weight.
func classList(cs *classes) []class {
	var out []class
	cs.each(func(c *class) { out = append(out, *c) })
	return out
}

// TestAccBatchFormsMatchAdd pins the contract the scan kernels rely on:
// every way of adding rows — a range of a float or int column, rows picked
// by index, a bare count, moments folded by dictionary code — leaves an Acc
// exactly as adding the same rows one at a time with Add does, for every
// aggregate kind, whether the rows share one rate, a few, or nearly one
// each, valid or not.
func TestAccBatchFormsMatchAdd(t *testing.T) {
	const n = 3000
	for _, nrates := range []int{1, 5, 1000} {
		for _, invalid := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(nrates)))
			rates := rateMix(rng, nrates, invalid)
			floats, ints, codes := make([]float64, n), make([]int64, n), make([]uint32, n)
			for i := range floats {
				floats[i] = rng.NormFloat64() * 100
				ints[i] = int64(rng.Intn(2000) - 500)
				codes[i] = uint32(rng.Intn(7))
			}
			// The rows arrive as the scan hands them over: stretches under one
			// rate, of which a random ascending subset is selected.
			type stretch struct {
				lo, hi int
				rate   float64
				idxs   []int32
			}
			var stretches []stretch
			for lo := 0; lo < n; {
				hi := min(n, lo+1+rng.Intn(3*n/len(rates)))
				s := stretch{lo: lo, hi: hi, rate: rates[rng.Intn(len(rates))]}
				for i := lo; i < hi; i++ {
					if rng.Intn(4) > 0 {
						s.idxs = append(s.idxs, int32(i))
					}
				}
				stretches = append(stretches, s)
				lo = hi
			}
			for _, k := range accKinds {
				label := func(form string) string {
					return k.kind.String() + " " + form
				}
				want, got := NewAcc(k.kind, k.p), NewAcc(k.kind, k.p)
				for _, s := range stretches {
					for _, x := range floats[s.lo:s.hi] {
						want.Add(x, s.rate)
					}
					AddRange(got, floats[s.lo:s.hi], s.rate)
				}
				sameAcc(t, label("AddRange of floats"), want, got)

				want, got = NewAcc(k.kind, k.p), NewAcc(k.kind, k.p)
				for _, s := range stretches {
					for _, v := range ints[s.lo:s.hi] {
						want.Add(float64(v), s.rate)
					}
					AddRange(got, ints[s.lo:s.hi], s.rate)
				}
				sameAcc(t, label("AddRange of ints"), want, got)

				want, got = NewAcc(k.kind, k.p), NewAcc(k.kind, k.p)
				wantI, gotI := NewAcc(k.kind, k.p), NewAcc(k.kind, k.p)
				for _, s := range stretches {
					for _, i := range s.idxs {
						want.Add(floats[i], s.rate)
						wantI.Add(float64(ints[i]), s.rate)
					}
					AddIndexed(got, floats, s.idxs, s.rate)
					AddIndexed(gotI, ints, s.idxs, s.rate)
				}
				sameAcc(t, label("AddIndexed floats"), want, got)
				sameAcc(t, label("AddIndexed ints"), wantI, gotI)

				want, got = NewAcc(k.kind, k.p), NewAcc(k.kind, k.p)
				for _, s := range stretches {
					for range s.idxs {
						want.Add(1, s.rate)
					}
					got.AddCount(len(s.idxs), s.rate)
				}
				sameAcc(t, label("AddCount"), want, got)

				if k.kind == AggQuantile || k.kind == AggCount {
					continue // a quantile retains values, a COUNT adds none: neither folds by code
				}
				wants, gots := make([]*Acc, 7), make([]*Acc, 7)
				for c := range wants {
					wants[c], gots[c] = NewAcc(k.kind, k.p), NewAcc(k.kind, k.p)
				}
				slots := make([]*Moments, 7)
				for _, s := range stretches {
					cnt := make([]int, 7)
					for _, i := range s.idxs {
						wants[codes[i]].Add(floats[i], s.rate)
						cnt[codes[i]]++
					}
					for c, m := range cnt {
						if m > 0 {
							slots[c] = gots[c].Slot(m, s.rate)
						}
					}
					FoldByCode(slots, codes, floats, s.idxs)
				}
				for c := range wants {
					sameAcc(t, label("Slot+FoldByCode"), wants[c], gots[c])
				}
			}
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
			exact.Add(x, r)
			exactRef.add(x, r)
			x, r = rng.NormFloat64()*1e3, math.Min(1, rng.Float64()+0.01)
			loose.Add(x, r)
			looseRef.add(x, r)
		}
		s := exact.sums()
		if got := (rowSums{s.w, s.w2, s.wx, s.wx2, s.ww1, s.ww1x2}); got != exactRef {
			t.Fatalf("trial %d: dyadic inputs: derived %+v, per-row %+v", trial, got, exactRef)
		}
		s = loose.sums()
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

// TestClassTallyMergeOrder: which rows an accumulator saw at which weight —
// the (w, n) pairs — is the same multiset however partial accumulators are
// merged, and so is a Tally's sum, bit for bit: counts add exactly.
func TestClassTallyMergeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rates := rateMix(rng, 40, true)
	parts, tallies := make([]*Acc, 9), make([]*Tally, 9)
	for p := range parts {
		parts[p], tallies[p] = NewAcc(AggSum, 0), new(Tally)
		for i, n := 0, rng.Intn(500); i < n; i++ {
			r := rates[rng.Intn(len(rates))]
			parts[p].Add(rng.NormFloat64(), r)
			if r > 0 {
				tallies[p].Add(1/r, 1)
			}
		}
	}
	counts := func(a *Acc) (out [][2]float64) {
		a.cs.each(func(c *class) { out = append(out, [2]float64{c.w, float64(c.N)}) })
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
		if w, g := wantTally.Sum(), gotTally.Sum(); w != g || math.IsNaN(g) {
			t.Fatalf("order %v: tally sums %v, first order %v", order, g, w)
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
	if byRow.Sum() != byStretch.Sum() || byRow.Sum() != 5500 {
		t.Fatalf("tally sums %v and %v, want 5500", byRow.Sum(), byStretch.Sum())
	}
}

// BenchmarkAccFold measures the ways a scan adds 32,768 rows, 85% of them
// selected, to an accumulator: a row at a time, and in the batch forms.
func BenchmarkAccFold(b *testing.B) {
	const n = 1 << 15
	rng := rand.New(rand.NewSource(1))
	xs, codes := make([]float64, n), make([]uint32, n)
	var idxs []int32
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 60
		codes[i] = uint32(rng.Intn(4))
		if rng.Float64() < 0.85 {
			idxs = append(idxs, int32(i))
		}
	}
	b.Run("Add", func(b *testing.B) {
		a := NewAcc(AggAvg, 0)
		for i := 0; i < b.N; i++ {
			for _, ri := range idxs {
				a.Add(xs[ri], 0.1)
			}
		}
	})
	b.Run("AddIndexed", func(b *testing.B) {
		a := NewAcc(AggAvg, 0)
		for i := 0; i < b.N; i++ {
			AddIndexed(a, xs, idxs, 0.1)
		}
	})
	b.Run("AddRange", func(b *testing.B) {
		a := NewAcc(AggAvg, 0)
		for i := 0; i < b.N; i++ {
			AddRange(a, xs, 0.1)
		}
	})
	b.Run("AddCount", func(b *testing.B) {
		a := NewAcc(AggCount, 0)
		for i := 0; i < b.N; i++ {
			a.AddCount(len(idxs), 0.1)
		}
	})
	b.Run("FoldByCode", func(b *testing.B) {
		slots := make([]*Moments, 4)
		for c := range slots {
			slots[c] = NewAcc(AggAvg, 0).Slot(1, 0.1)
		}
		for i := 0; i < b.N; i++ {
			FoldByCode(slots, codes, xs, idxs)
		}
	})
}
