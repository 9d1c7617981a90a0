package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestMergePropertyRandomShapes is the quickcheck-style pin of the
// invariant every bit-identity claim in PRs 1-5 rests on: Acc merging is
// associative and commutative. 200 seeded trials draw a random stream,
// cut it into a random number of partitions at random boundaries
// (including empty ones), fold the partial accumulators under random
// association trees AND random commutation orders, and require the exact
// same Estimate every time.
//
// Exactness discipline mirrors merge_test.go: values are small integers
// and rates dyadic, so every moment sum is exact in float64 and equality
// can be bit-for-bit — with inexact addition, associativity would
// legitimately fail, which is precisely why exec.MergePartials pins a
// canonical fold order. Commutativity of a single Merge needs no such
// care (IEEE addition commutes exactly), and the quantile estimate is
// order-free by construction (total-order sort of the merged multiset) —
// both facts get their own arbitrary-float trial at the end.
func TestMergePropertyRandomShapes(t *testing.T) {
	kinds := []struct {
		kind AggKind
		p    float64
	}{
		{AggCount, 0}, {AggSum, 0}, {AggAvg, 0}, {AggQuantile, 0.5}, {AggQuantile, 0.9},
	}
	dyadic := []float64{1, 0.5, 0.25, 0.125, 0.0625}
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := rng.Intn(600) // includes n = 0
		xs := make([]float64, n)
		rates := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(100) - 20)
			rates[i] = dyadic[rng.Intn(len(dyadic))]
		}
		// Random partition: k parts with random boundaries, empties legal.
		k := 1 + rng.Intn(9)
		cuts := make([]int, k+1)
		cuts[k] = n
		for c := 1; c < k; c++ {
			cuts[c] = rng.Intn(n + 1)
		}
		cuts[0] = 0
		sortInts(cuts)

		for _, kd := range kinds {
			parts := make([]*Acc, k)
			for p := 0; p < k; p++ {
				parts[p] = NewAcc(kd.kind, kd.p)
				for i := cuts[p]; i < cuts[p+1]; i++ {
					parts[p].Add(xs[i], rates[i])
				}
			}
			// Reference: strict left fold in partition order.
			want := foldOrdered(parts).Estimate(0.95)

			// Associativity: a random binary merge tree over the same
			// partition order.
			if got := foldRandomTree(rng, parts).Estimate(0.95); got != want {
				t.Fatalf("trial %d kind %s p=%g: random association tree diverged\nwant %+v\ngot  %+v",
					trial, kd.kind, kd.p, want, got)
			}
			// Commutativity: left fold over a random permutation.
			perm := rng.Perm(k)
			shuffled := make([]*Acc, k)
			for i, j := range perm {
				shuffled[i] = parts[j]
			}
			if got := foldOrdered(shuffled).Estimate(0.95); got != want {
				t.Fatalf("trial %d kind %s p=%g: permutation %v diverged\nwant %+v\ngot  %+v",
					trial, kd.kind, kd.p, perm, want, got)
			}
		}
	}

	// Arbitrary (non-dyadic) floats: pairwise Merge commutes bit-for-bit
	// (IEEE a+b == b+a), and the quantile point depends only on the
	// merged multiset, for any partition shape.
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 50; trial++ {
		a, b := NewAcc(AggAvg, 0), NewAcc(AggAvg, 0)
		qa, qb := NewAcc(AggQuantile, 0.5), NewAcc(AggQuantile, 0.5)
		for i, n := 0, 50+rng.Intn(200); i < n; i++ {
			x, r := rng.NormFloat64()*1e3, math.Min(1, rng.Float64()+0.01)
			if rng.Intn(2) == 0 {
				a.Add(x, r)
				qa.Add(x, r)
			} else {
				b.Add(x, r)
				qb.Add(x, r)
			}
		}
		ab, ba := a.Clone(), b.Clone()
		ab.Merge(b, Weights{})
		ba.Merge(a, Weights{})
		if ab.Estimate(0.95) != ba.Estimate(0.95) {
			t.Fatalf("trial %d: Merge does not commute on arbitrary floats\nA∪B %+v\nB∪A %+v",
				trial, ab.Estimate(0.95), ba.Estimate(0.95))
		}
		qab, qba := qa.Clone(), qb.Clone()
		qab.Merge(qb, Weights{})
		qba.Merge(qa, Weights{})
		if pa, pb := qab.Estimate(0.95).Point, qba.Estimate(0.95).Point; pa != pb {
			t.Fatalf("trial %d: quantile point depends on merge order: %v vs %v", trial, pa, pb)
		}
	}
}

// foldOrdered left-folds clones (sources stay reusable across orders).
func foldOrdered(parts []*Acc) *Acc {
	acc := parts[0].Clone()
	for _, p := range parts[1:] {
		acc.Merge(p, Weights{})
	}
	return acc
}

// foldRandomTree merges parts under a random association: repeatedly
// merge a random ADJACENT pair (preserving left-to-right order, so only
// the parenthesization varies — pure associativity, no commutation).
func foldRandomTree(rng *rand.Rand, parts []*Acc) *Acc {
	work := make([]*Acc, len(parts))
	for i, p := range parts {
		work[i] = p.Clone()
	}
	for len(work) > 1 {
		i := rng.Intn(len(work) - 1)
		work[i].Merge(work[i+1], Weights{})
		work = append(work[:i+1], work[i+2:]...)
	}
	return work[0]
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
