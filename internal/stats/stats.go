// Package stats implements BlinkDB's error-estimation machinery (§4.3 and
// Table 2): closed-form variance estimators for COUNT, SUM, AVG and
// QUANTILE over weighted (Horvitz–Thompson) samples, normal-approximation
// confidence intervals, and the per-row effective-sampling-rate bias
// correction required when answering from stratified samples.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// AggKind enumerates the closed-form aggregates of Table 2.
type AggKind uint8

const (
	// AggCount is COUNT(*) (or COUNT(col), NULLs pre-filtered upstream).
	AggCount AggKind = iota
	// AggSum is SUM(col).
	AggSum
	// AggAvg is AVG(col).
	AggAvg
	// AggQuantile is QUANTILE(col, p) (MEDIAN is p = 0.5).
	AggQuantile
)

// String renders the aggregate name.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggQuantile:
		return "QUANTILE"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// NeedsValues reports whether the accumulator must retain raw values
// (true only for quantiles, which need order statistics).
func (k AggKind) NeedsValues() bool { return k == AggQuantile }

// ZForConfidence returns the two-sided normal critical value z such that
// P(|Z| ≤ z) = conf, e.g. ≈1.96 for conf = 0.95.
func ZForConfidence(conf float64) float64 {
	if conf <= 0 {
		return 0
	}
	if conf >= 1 {
		conf = 0.999999
	}
	return math.Sqrt2 * math.Erfinv(conf)
}

// Estimate is a point estimate with uncertainty, as returned to users
// ("Result: 1,101,822 ± 2,105 (95% confidence)" in Fig. 1).
type Estimate struct {
	// Point is the unbiased point estimate.
	Point float64
	// StdErr is the estimated standard error of Point.
	StdErr float64
	// Confidence is the level the Bound was computed at.
	Confidence float64
	// Bound is the half-width of the confidence interval (z·StdErr).
	Bound float64
	// Rows is the number of matching sample rows the estimate used.
	Rows int64
	// EffRows is the effective sample size (Σw)²/Σw², which accounts
	// for the design effect of unequal weights.
	EffRows float64
	// Exact marks estimates known to be exact (e.g. a stratum fully
	// contained in the sample, §3.1: F(x) ≤ K ⇒ no sampling error).
	Exact bool
}

// RelErr returns Bound/|Point|, the relative error at the estimate's
// confidence level. Infinite when Point is 0 with nonzero bound.
func (e Estimate) RelErr() float64 {
	if e.Bound == 0 {
		return 0
	}
	if e.Point == 0 {
		return math.Inf(1)
	}
	return e.Bound / math.Abs(e.Point)
}

// String renders "point ± bound (conf%)".
func (e Estimate) String() string {
	return fmt.Sprintf("%.4g ± %.3g (%.0f%% confidence)", e.Point, e.Bound, e.Confidence*100)
}

type weightedVal struct {
	x float64
	w float64
}

// Acc accumulates matching rows of one (group, aggregate) pair from a
// weighted sample. Each matching row carries the effective sampling rate
// with which it entered the sample; weight w = 1/rate. Base tables have
// rate 1 everywhere, making every estimate exact.
type Acc struct {
	kind AggKind
	p    float64 // quantile level for AggQuantile

	rows    int64
	sumW    float64 // Σ w            (HT count estimate)
	sumW2   float64 // Σ w²
	sumWX   float64 // Σ w·x          (HT sum estimate)
	sumWX2  float64 // Σ w·x²
	sumWW1  float64 // Σ w(w−1)       (Poisson-HT count variance)
	sumWW1X float64 // Σ w(w−1)x²     (Poisson-HT sum variance)
	allOne  bool    // every weight was exactly 1 → estimate is exact

	vals []weightedVal // retained only for quantiles
}

// NewAcc creates an accumulator. p is the quantile level and is ignored
// for other aggregate kinds.
func NewAcc(kind AggKind, p float64) *Acc {
	return &Acc{kind: kind, p: p, allOne: true}
}

// Kind returns the aggregate kind.
func (a *Acc) Kind() AggKind { return a.kind }

// Add records one matching row with value x sampled at the given rate.
func (a *Acc) Add(x, rate float64) {
	if rate <= 0 || rate > 1 {
		rate = 1
	}
	w := 1 / rate
	a.rows++
	a.sumW += w
	a.sumW2 += w * w
	a.sumWX += w * x
	a.sumWX2 += w * x * x
	a.sumWW1 += w * (w - 1)
	a.sumWW1X += w * (w - 1) * x * x
	if w != 1 {
		a.allOne = false
	}
	if a.kind.NeedsValues() {
		a.vals = append(a.vals, weightedVal{x: x, w: w})
	}
}

// AddBatch records n matching rows at once, identically — operation for
// operation, in order — to calling Add for each row, so batch and scalar
// accumulation produce bit-identical state. xs holds the per-row values
// (nil means every x is 1, the COUNT path; otherwise len(xs) == n). rates
// holds the per-row sampling rates (nil means every row shares rate;
// otherwise len(rates) == n). The batch forms exist for the vectorized
// columnar scan: with a shared rate the weight terms w, w² and w(w−1) are
// loop-invariant and the moment sums stay in registers across the batch.
func (a *Acc) AddBatch(xs, rates []float64, n int, rate float64) {
	if n == 0 {
		return
	}
	if rates != nil {
		// Varying rates: per-row weight math is unavoidable; reuse Add so
		// the operation sequence stays trivially identical.
		if xs == nil {
			for _, r := range rates[:n] {
				a.Add(1, r)
			}
		} else {
			for j, x := range xs[:n] {
				a.Add(x, rates[j])
			}
		}
		return
	}
	if rate <= 0 || rate > 1 {
		rate = 1
	}
	w := 1 / rate
	w2, ww1 := w*w, w*(w-1)
	sumW, sumW2, sumWX, sumWX2 := a.sumW, a.sumW2, a.sumWX, a.sumWX2
	sumWW1, sumWW1X := a.sumWW1, a.sumWW1X
	if xs == nil {
		// x = 1 throughout: w·x = w, w·x·x = w, w(w−1)x² = w(w−1), all
		// exactly (IEEE multiplication by 1 is the identity).
		for j := 0; j < n; j++ {
			sumW += w
			sumW2 += w2
			sumWX += w
			sumWX2 += w
			sumWW1 += ww1
			sumWW1X += ww1
		}
	} else {
		for _, x := range xs[:n] {
			sumW += w
			sumW2 += w2
			sumWX += w * x
			sumWX2 += w * x * x
			sumWW1 += ww1
			sumWW1X += ww1 * x * x
		}
	}
	a.sumW, a.sumW2, a.sumWX, a.sumWX2 = sumW, sumW2, sumWX, sumWX2
	a.sumWW1, a.sumWW1X = sumWW1, sumWW1X
	a.rows += int64(n)
	if w != 1 {
		a.allOne = false
	}
	if a.kind.NeedsValues() {
		if xs == nil {
			for j := 0; j < n; j++ {
				a.vals = append(a.vals, weightedVal{x: 1, w: w})
			}
		} else {
			for _, x := range xs[:n] {
				a.vals = append(a.vals, weightedVal{x: x, w: w})
			}
		}
	}
}

// Merge folds other into a (parallel partial aggregation). Every estimator
// state is a set of moment sums (Σw, Σw², Σwx, Σwx², …), so combining is
// associative addition — the Chan et al. parallel-merge formulation of
// mean/variance expressed over raw moments. Quantile value buffers
// concatenate; weightedQuantile sorts with a total order, so the estimate
// depends only on the merged multiset, not the merge schedule. Callers who
// need bit-identical floating-point results across worker counts must
// additionally fold partials in a deterministic order (see
// exec.MergePartials).
func (a *Acc) Merge(other *Acc) {
	a.rows += other.rows
	a.sumW += other.sumW
	a.sumW2 += other.sumW2
	a.sumWX += other.sumWX
	a.sumWX2 += other.sumWX2
	a.sumWW1 += other.sumWW1
	a.sumWW1X += other.sumWW1X
	a.allOne = a.allOne && other.allOne
	a.vals = append(a.vals, other.vals...)
}

// Clone returns an independent copy of the accumulator (the quantile
// value buffer is copied, not aliased), so merging into the clone leaves
// the original usable.
func (a *Acc) Clone() *Acc {
	cp := *a
	if a.vals != nil {
		cp.vals = append(make([]weightedVal, 0, len(a.vals)), a.vals...)
	}
	return &cp
}

// Rows returns the number of matching rows added.
func (a *Acc) Rows() int64 { return a.rows }

// EffRows returns the effective sample size (Σw)²/Σw².
func (a *Acc) EffRows() float64 {
	if a.sumW2 == 0 {
		return 0
	}
	return a.sumW * a.sumW / a.sumW2
}

// weightedVariance returns the weighted population variance of x,
// S² = Σw(x−μ)²/Σw with μ the weighted mean.
func (a *Acc) weightedVariance() float64 {
	if a.sumW == 0 {
		return 0
	}
	mu := a.sumWX / a.sumW
	v := a.sumWX2/a.sumW - mu*mu
	if v < 0 {
		v = 0 // numeric noise
	}
	return v
}

// Estimate produces the point estimate and CI at the given confidence.
func (a *Acc) Estimate(conf float64) Estimate {
	return a.EstimateZ(conf, ZForConfidence(conf))
}

// EstimateZ is Estimate for a caller that finalizes many accumulators at
// one confidence and computed z = ZForConfidence(conf) once for all of them.
func (a *Acc) EstimateZ(conf, z float64) Estimate {
	e := Estimate{Confidence: conf, Rows: a.rows, EffRows: a.EffRows(), Exact: a.allOne}
	if a.rows == 0 {
		return e
	}
	switch a.kind {
	case AggCount:
		// Table 2: N̂ = Σw; Var(N̂) = Σ w(w−1) (Poisson-design HT
		// estimator; reduces to N²c(1−c)/n under uniform rates for
		// small c).
		e.Point = a.sumW
		e.StdErr = math.Sqrt(math.Max(a.sumWW1, 0))
	case AggSum:
		// Table 2: Ŝ = Σw·x; Var(Ŝ) = Σ w(w−1)x² plus the
		// within-replicate variance term N̂·S²ₙ·(deff) captured by the
		// HT estimator under Poisson sampling.
		e.Point = a.sumWX
		e.StdErr = math.Sqrt(math.Max(a.sumWW1X, 0))
	case AggAvg:
		// Table 2: X̄ = Σwx/Σw; Var(X̄) = S²ₙ/n with n the effective
		// sample size under unequal weights.
		e.Point = a.sumWX / a.sumW
		if eff := a.EffRows(); eff > 0 && !a.allOne {
			e.StdErr = math.Sqrt(a.weightedVariance() / eff)
		} else if a.allOne {
			e.StdErr = 0 // rate-1 rows: exact
		}
	case AggQuantile:
		e.Point = a.weightedQuantile(a.p)
		if !a.allOne {
			e.StdErr = a.quantileStdErr()
		}
	}
	if a.allOne {
		// All rows were sampled at rate 1: the sample contains every
		// matching row of the base table and the answer is exact.
		e.StdErr = 0
	}
	e.Bound = z * e.StdErr
	return e
}

// weightedQuantile computes the weighted interpolated p-quantile,
// generalising Table 2's x_⌊h⌋ + (h−⌊h⌋)(x_⌈h⌉−x_⌊h⌋).
func (a *Acc) weightedQuantile(p float64) float64 {
	if len(a.vals) == 0 {
		return 0
	}
	// Total order (x, then w): ties between equal values with different
	// weights resolve identically however the buffer was assembled, so
	// merged partials quantile the same as a sequential scan.
	sort.Slice(a.vals, func(i, j int) bool {
		if a.vals[i].x != a.vals[j].x {
			return a.vals[i].x < a.vals[j].x
		}
		return a.vals[i].w < a.vals[j].w
	})
	if p <= 0 {
		return a.vals[0].x
	}
	if p >= 1 {
		return a.vals[len(a.vals)-1].x
	}
	target := p * a.sumW
	cum := 0.0
	for i, v := range a.vals {
		next := cum + v.w
		if next >= target {
			// Past the midpoint of this value's weight mass, interpolate
			// linearly toward the next order statistic; this generalises
			// Table 2's x_⌊h⌋ + (h−⌊h⌋)(x_⌈h⌉−x_⌊h⌋) to weighted rows.
			if i+1 < len(a.vals) && v.w > 0 {
				if frac := (target - cum) / v.w; frac > 0.5 {
					return v.x + (a.vals[i+1].x-v.x)*(frac-0.5)
				}
			}
			return v.x
		}
		cum = next
	}
	return a.vals[len(a.vals)-1].x
}

// quantileStdErr estimates Table 2's quantile stderr
// √(p(1−p)/n)/f(x_p) using a finite-difference density estimate:
// f(x_p) ≈ 2δ / (x_{p+δ} − x_{p−δ}).
func (a *Acc) quantileStdErr() float64 {
	n := a.EffRows()
	if n < 4 {
		return math.Abs(a.weightedQuantile(0.75)-a.weightedQuantile(0.25)) / 2
	}
	delta := math.Min(0.1, math.Max(0.01, 1/math.Sqrt(n)))
	lo := clampQ(a.p - delta)
	hi := clampQ(a.p + delta)
	spread := a.weightedQuantile(hi) - a.weightedQuantile(lo)
	if spread <= 0 {
		return 0 // locally constant data: quantile is pinned
	}
	f := (hi - lo) / spread
	return math.Sqrt(a.p*(1-a.p)/n) / f
}

func clampQ(p float64) float64 {
	return math.Max(0.001, math.Min(0.999, p))
}

// UniformCountVariance is the textbook Table 2 COUNT variance
// N²·c(1−c)/n for a uniform sample: N total rows, n sample rows read,
// c the matching fraction. Exposed for ELP planning and tests.
func UniformCountVariance(totalRows, sampleRows float64, c float64) float64 {
	if sampleRows <= 0 {
		return math.Inf(1)
	}
	return totalRows * totalRows / sampleRows * c * (1 - c)
}

// UniformAvgVariance is Table 2's AVG variance S²ₙ/n.
func UniformAvgVariance(sampleVariance float64, n float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return sampleVariance / n
}

// RequiredRowsForStdErr extrapolates how many matching rows are needed to
// shrink the standard error to target, given that stderr ∝ 1/√n (which
// holds for every operator in Table 2). currentN is the matching rows
// behind currentStdErr.
func RequiredRowsForStdErr(currentStdErr float64, currentN float64, target float64) float64 {
	if target <= 0 || currentN <= 0 {
		return math.Inf(1)
	}
	if currentStdErr == 0 {
		return currentN
	}
	r := currentStdErr / target
	return currentN * r * r
}
