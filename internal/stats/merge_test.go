package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestMergeEquivalence is the mergeability property the parallel executor
// rests on: splitting a stream of (x, rate) observations into consecutive
// chunks, accumulating each chunk separately and folding the partial
// accumulators in chunk order must reproduce the estimate of a single
// sequential accumulator. Values are small integers and rates dyadic
// (1/2^k), so every moment sum is exact in float64 and the comparison can
// be bit-for-bit — Merge adds partial sums, and with inexact addition the
// association would legitimately differ (which is why exec.MergePartials
// pins a canonical fold order instead of promising monolithic equality).
func TestMergeEquivalence(t *testing.T) {
	kinds := []struct {
		kind AggKind
		p    float64
	}{
		{AggCount, 0}, {AggSum, 0}, {AggAvg, 0}, {AggQuantile, 0.5}, {AggQuantile, 0.9},
	}
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(1500)
		xs := make([]float64, n)
		rates := make([]float64, n)
		dyadic := []float64{1, 0.5, 0.25, 0.125, 0.0625}
		for i := range xs {
			xs[i] = float64(rng.Intn(200))
			rates[i] = dyadic[rng.Intn(len(dyadic))]
		}
		for _, k := range kinds {
			seq := NewAcc(k.kind, k.p)
			for i := range xs {
				seq.Add(xs[i], rates[i])
			}
			want := seq.Estimate(0.95)

			for _, chunks := range []int{1, 2, 7, 64} {
				accs := make([]*Acc, chunks)
				for c := range accs {
					accs[c] = NewAcc(k.kind, k.p)
				}
				// Consecutive chunking mirrors the executor's contiguous
				// block ranges: chunk boundaries preserve stream order.
				per := (n + chunks - 1) / chunks
				for i := range xs {
					accs[i/per].Add(xs[i], rates[i])
				}
				merged := accs[0]
				for _, a := range accs[1:] {
					merged.Merge(a, Weights{})
				}
				got := merged.Estimate(0.95)
				if got != want {
					t.Fatalf("seed=%d kind=%s p=%g chunks=%d: merged %+v != sequential %+v",
						seed, k.kind, k.p, chunks, got, want)
				}
			}
		}
	}
}

// TestMergeEmptyAndZeroRows checks merging with empty partials (a block
// range where no row matched) is the identity.
func TestMergeEmptyAndZeroRows(t *testing.T) {
	a := NewAcc(AggAvg, 0)
	a.Add(10, 1)
	a.Add(20, 0.5)
	want := a.Estimate(0.9)

	b := NewAcc(AggAvg, 0)
	b.Add(10, 1)
	b.Add(20, 0.5)
	b.Merge(NewAcc(AggAvg, 0), Weights{})
	if got := b.Estimate(0.9); got != want {
		t.Fatalf("merging an empty acc changed the estimate: %+v vs %+v", got, want)
	}

	empty := NewAcc(AggCount, 0)
	empty.Merge(NewAcc(AggCount, 0), Weights{})
	if e := empty.Estimate(0.95); e.Rows != 0 || e.Point != 0 {
		t.Fatalf("empty merge should stay empty: %+v", e)
	}
}

// TestQuantileOrderInvariance: the quantile estimate depends only on the
// merged multiset of weighted values, not the order buffers were
// concatenated in (the sort uses a total order on (x, w)).
func TestQuantileOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, 400)
	for i := range vals {
		vals[i] = math.Round(rng.NormFloat64() * 5) // many ties
	}
	build := func(order []int) Estimate {
		a := NewAcc(AggQuantile, 0.5)
		b := NewAcc(AggQuantile, 0.5)
		for _, i := range order {
			rate := 1.0
			if i%3 == 0 {
				rate = 0.25
			}
			if i < len(vals)/2 {
				a.Add(vals[i], rate)
			} else {
				b.Add(vals[i], rate)
			}
		}
		a.Merge(b, Weights{})
		return a.Estimate(0.95)
	}
	asc := make([]int, len(vals))
	for i := range asc {
		asc[i] = i
	}
	shuffled := append([]int(nil), asc...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if e1, e2 := build(asc), build(shuffled); e1.Point != e2.Point {
		t.Fatalf("quantile depends on insertion order: %g vs %g", e1.Point, e2.Point)
	}
}

// TestMergeWeighsAtCap: merged under a cap's Weights, an accumulator's
// classes join the classes of their weights there, and its quantile values
// carry those weights — so the merged state, finalized with zero Weights,
// answers bit for bit as the source finalized at the cap (values are small
// integers and the weights powers of two, so every sum is exact), and the
// source is left as it was. Tallies merge the same way.
func TestMergeWeighsAtCap(t *testing.T) {
	const capK = 64
	ws := Weights{Cap: capK}
	freqs := []int64{3, 16, 64, 128, 256, 1024} // weights 1, 1, 1, 2, 4, 16
	z := ZForConfidence(0.95)
	for _, k := range []struct {
		kind AggKind
		p    float64
	}{{AggCount, 0}, {AggSum, 0}, {AggAvg, 0}, {AggQuantile, 0.5}, {AggQuantile, 0.9}} {
		rng := rand.New(rand.NewSource(int64(k.kind) + 7))
		src := NewAcc(k.kind, k.p)
		var tally Tally
		for row := 0; row < 3000; row++ {
			key := FreqKey(freqs[rng.Intn(len(freqs))], 16)
			src.AddRow(float64(rng.Intn(100)), row, key)
			tally.Add(key, 1)
		}
		want := src.EstimateZ(0.95, z, ws)
		merged := NewAcc(k.kind, k.p)
		merged.Merge(src, ws)
		if got := merged.EstimateZ(0.95, z, Weights{}); got != want {
			t.Errorf("%v: merged at the cap %+v, finalized at it %+v", k.kind, got, want)
		}
		if again := src.EstimateZ(0.95, z, ws); again != want {
			t.Errorf("%v: merging changed the source: %+v, was %+v", k.kind, again, want)
		}
		var sum Tally
		sum.Merge(&tally, ws)
		if got, want := sum.Sum(Weights{}), tally.Sum(ws); got != want {
			t.Errorf("%v: merged tally %v, at the cap %v", k.kind, got, want)
		}
	}
}
