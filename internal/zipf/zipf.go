// Package zipf implements a deterministic Zipf-distributed value generator
// and the analytic storage-overhead calculation used by the paper's
// Appendix A (Table 5): the size of a stratified sample S(φ,K) relative to
// the original table when the value frequencies follow a Zipf law.
package zipf

import (
	"math"
	"math/rand"
)

// CDFGenerator samples Zipf ranks by inverse-CDF lookup over a
// precomputed table. It supports any exponent s > 0 (including s ≤ 1,
// which math/rand cannot) at the cost of O(n) setup memory, so it is
// intended for moderate n (≤ ~10⁷).
type CDFGenerator struct {
	cdf []float64
	rng *rand.Rand
}

// NewGeneratorCDF builds an inverse-CDF Zipf sampler over ranks [1, n].
func NewGeneratorCDF(rng *rand.Rand, s float64, n int) *CDFGenerator {
	cdf := make([]float64, n)
	sum := 0.0
	for r := 1; r <= n; r++ {
		sum += 1 / math.Pow(float64(r), s)
		cdf[r-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &CDFGenerator{cdf: cdf, rng: rng}
}

// Next returns a rank in [1, n].
func (g *CDFGenerator) Next() int {
	u := g.rng.Float64()
	// Binary search for the first cdf entry ≥ u.
	lo, hi := 0, len(g.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// StratifiedOverhead computes the fraction of the original table that a
// stratified sample S(φ,K) occupies, assuming the value frequencies of φ
// follow the paper's Appendix-A parameterisation: F(x) = M / rank(x)^s,
// i.e. the most frequent value occurs M times and there are as many
// distinct values as needed until the frequency drops below 1.
//
// The sample keeps min(F(x), K) rows of each value, so
//
//	overhead = Σ_r min(M/r^s, K) / Σ_r M/r^s.
//
// Both sums are evaluated analytically: the rank at which M/r^s crosses K
// is r* = (M/K)^{1/s}; ranks below r* contribute K each, ranks above
// contribute M/r^s. Tail sums use the integral approximation
// Σ_{r>a} r^{-s} ≈ ∫_a^∞ x^{-s} dx = a^{1-s}/(s-1) (s > 1), matching the
// paper's Table 5 to the reported precision.
func StratifiedOverhead(s float64, m float64, k float64) float64 {
	if s <= 1 {
		// Harmonic-like tail diverges; fall back to explicit summation with
		// a cutoff where frequency < 1 (value no longer appears).
		return stratifiedOverheadSum(s, m, k)
	}
	if k >= m {
		return 1 // no value exceeds the cap; the sample is the whole table
	}
	rStar := math.Pow(m/k, 1/s) // frequency ≥ K for ranks ≤ r*
	rMax := math.Pow(m, 1/s)    // frequency ≥ 1 for ranks ≤ rMax
	if rStar > rMax {
		rStar = rMax
	}
	// Σ_{r=1..rMax} M/r^s  (total rows)
	total := m * zetaPartial(s, rMax)
	// Sample rows: K · r*  +  Σ_{r*<r≤rMax} M/r^s
	sample := k*rStar + m*(zetaPartial(s, rMax)-zetaPartial(s, rStar))
	if total <= 0 {
		return 0
	}
	return sample / total
}

// stratifiedOverheadSum is the explicit-summation fallback used for s ≤ 1.
// It caps the number of summed ranks for tractability; the paper's Table 5
// only reports s ≥ 1.0 where rank counts stay manageable relative to the
// chosen cutoff.
func stratifiedOverheadSum(s, m, k float64) float64 {
	rMax := math.Pow(m, 1/s)
	if rMax > 5e7 {
		rMax = 5e7
	}
	total, sample := 0.0, 0.0
	for r := 1.0; r <= rMax; r++ {
		f := m / math.Pow(r, s)
		if f < 1 {
			break
		}
		total += f
		sample += math.Min(f, k)
	}
	if total == 0 {
		return 0
	}
	return sample / total
}

// zetaPartial approximates Σ_{r=1..a} r^{-s} for s > 1 using exact
// summation of the head plus an integral tail correction, accurate to
// well under 0.1% for the ranges in Table 5.
func zetaPartial(s, a float64) float64 {
	if a < 1 {
		return 0
	}
	const head = 10000
	n := math.Min(a, head)
	sum := 0.0
	for r := 1.0; r <= n; r++ {
		sum += math.Pow(r, -s)
	}
	if a > head {
		// ∫_{head}^{a} x^{-s} dx with midpoint correction.
		sum += (math.Pow(head, 1-s) - math.Pow(a, 1-s)) / (s - 1)
	}
	return sum
}
