package zipf

import (
	"math"
	"math/rand"
	"testing"
)

func TestGeneratorRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewGeneratorCDF(rng, 1.5, 1000)
	for i := 0; i < 10000; i++ {
		r := g.Next()
		if r < 1 || r > 1000 {
			t.Fatalf("rank %d out of [1,1000]", r)
		}
	}
}

func TestGeneratorSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewGeneratorCDF(rng, 1.5, 1000)
	counts := make(map[int]int)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[g.Next()]++
	}
	// Rank 1 should dominate: expected share is 1/ζ(1.5 partial) ≈ 38%.
	share1 := float64(counts[1]) / n
	if share1 < 0.25 || share1 > 0.55 {
		t.Errorf("rank-1 share = %.3f, want ≈ 0.38", share1)
	}
	if counts[1] <= counts[2] || counts[2] <= counts[10] {
		t.Error("frequencies should decrease with rank")
	}
}

func TestCDFGeneratorMatchesTheory(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewGeneratorCDF(rng, 1.0, 100) // s=1 unsupported by math/rand
	counts := make([]int, 101)
	const n = 300000
	for i := 0; i < n; i++ {
		counts[g.Next()]++
	}
	freqs := Frequencies(1.0, 100, n)
	for _, r := range []int{1, 2, 5, 10, 50} {
		got := float64(counts[r])
		want := freqs[r-1]
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("rank %d: got %d draws, want ≈ %.0f", r, counts[r], want)
		}
	}
}

func TestFrequenciesSumToTotal(t *testing.T) {
	f := Frequencies(1.3, 500, 1e6)
	sum := 0.0
	for _, v := range f {
		sum += v
	}
	if math.Abs(sum-1e6) > 1 {
		t.Errorf("frequencies sum to %.2f, want 1e6", sum)
	}
	for i := 1; i < len(f); i++ {
		if f[i] > f[i-1] {
			t.Fatalf("frequencies must be non-increasing at rank %d", i+1)
		}
	}
}

// TestTable5 reproduces the paper's Table 5: storage fraction of S(φ,K)
// for a Zipf distribution with max frequency M = 10⁹ across exponents and
// cap values. Tolerances are loose-but-meaningful (±20% relative or
// ±0.005 absolute): the paper reports 2-3 significant digits and our
// analytic tail approximation differs slightly from their numeric method.
func TestTable5(t *testing.T) {
	m := 1e9
	want := map[float64][3]float64{ // s -> overhead at K=1e4, 1e5, 1e6
		1.1: {0.25, 0.35, 0.48},
		1.2: {0.13, 0.21, 0.32},
		1.3: {0.07, 0.13, 0.22},
		1.4: {0.04, 0.08, 0.15},
		1.5: {0.024, 0.052, 0.114},
		1.6: {0.015, 0.036, 0.087},
		1.7: {0.010, 0.026, 0.069},
		1.8: {0.007, 0.020, 0.055},
		1.9: {0.005, 0.015, 0.045},
		2.0: {0.0038, 0.012, 0.038},
	}
	ks := []float64{1e4, 1e5, 1e6}
	for s, row := range want {
		for i, k := range ks {
			got := StratifiedOverhead(s, m, k)
			paper := row[i]
			if math.Abs(got-paper) > 0.2*paper+0.005 {
				t.Errorf("s=%.1f K=%.0e: got %.4f, paper %.4f", s, k, got, paper)
			}
		}
	}
}

func TestTable5S1(t *testing.T) {
	// s=1.0 row: paper reports 0.49, 0.58, 0.69 (fallback summation path).
	got := StratifiedOverhead(1.0, 1e9, 1e5)
	if math.Abs(got-0.58) > 0.12 {
		t.Errorf("s=1.0 K=1e5: got %.3f, paper 0.58", got)
	}
}

func TestStratifiedOverheadMonotone(t *testing.T) {
	// Overhead grows with K and shrinks with s.
	m := 1e9
	if !(StratifiedOverhead(1.5, m, 1e4) < StratifiedOverhead(1.5, m, 1e5)) {
		t.Error("overhead should grow with K")
	}
	if !(StratifiedOverhead(1.8, m, 1e5) < StratifiedOverhead(1.2, m, 1e5)) {
		t.Error("overhead should shrink with s")
	}
	// K larger than M keeps everything.
	if got := StratifiedOverhead(1.5, 1e6, 1e7); math.Abs(got-1) > 1e-9 {
		t.Errorf("K > M should give overhead 1, got %g", got)
	}
}

func BenchmarkCDFGenerator(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewGeneratorCDF(rng, 1.2, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// Frequencies returns the expected frequency of each rank 1..n for a table
// with total rows, under Zipf exponent s. Frequencies are real-valued
// expectations, f(r) = total · (1/r^s)/H_{n,s}: the theory the sampler is
// held to.
func Frequencies(s float64, n int, total float64) []float64 {
	h := 0.0
	for r := 1; r <= n; r++ {
		h += 1 / math.Pow(float64(r), s)
	}
	out := make([]float64, n)
	for r := 1; r <= n; r++ {
		out[r-1] = total / math.Pow(float64(r), s) / h
	}
	return out
}
