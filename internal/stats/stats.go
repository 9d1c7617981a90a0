// Package stats implements BlinkDB's error-estimation machinery (§4.3 and
// Table 2): closed-form variance estimators for COUNT, SUM, AVG and
// QUANTILE over weighted (Horvitz–Thompson) samples, normal-approximation
// confidence intervals, and the per-row effective-sampling-rate bias
// correction required when answering from stratified samples.
//
// # Weigh once
//
// Table 2's estimators are per stratum: sum a stratum's rows, then scale by
// its N/n. Acc accumulates the same way. Per distinct weight w = 1/rate — a
// weight class c — it keeps the raw moments of its rows, n_c, Σx_c and
// Σx²_c, and Estimate derives the weighted sums the estimators read, one
// multiplication per class instead of six per row, visiting the classes in
// ascending w:
//
//	Σw         = Σ_c n_c·w_c
//	Σw²        = Σ_c n_c·w_c²
//	Σwx        = Σ_c w_c·Σx_c
//	Σwx²       = Σ_c w_c·Σx²_c
//	Σw(w−1)    = Σ_c n_c·w_c(w_c−1)
//	Σw(w−1)x²  = Σ_c w_c(w_c−1)·Σx²_c
//
// Whether every weight was 1 (Estimate.Exact) and the effective sample size
// (Σw)²/Σw² are derived too. Tally is the same structure with the counts
// alone: Σ 1/rate over matching rows as an exact weight → count table.
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

// Moments are the raw moments of a set of rows: how many, Σx and Σx². They
// carry no weight — an accumulator keeps one per weight class and applies
// the weights when it estimates.
type Moments struct {
	N     int64
	SumX  float64
	SumXX float64
}

// class is the rows an accumulator saw under one weight w = 1/rate: one
// stratum's rows at one resolution, or several strata sampled alike.
type class struct {
	w float64
	Moments
}

// classes is a set of weight classes keyed by exact weight. The first
// class to arrive is held inline — a group whose rows share one rate, which
// is most groups, allocates nothing more — and later ones in a slice kept
// ascending in w. Lookups are by the last hit, then by search: rows arrive
// in runs of one weight.
type classes struct {
	live  bool // first is in use
	first class
	more  []class
	last  int // index into more of the latest hit
}

// find returns the class of weight w, adding it when new. The pointer is
// good until the next find of a new weight.
func (c *classes) find(w float64) *class {
	switch {
	case !c.live:
		c.live, c.first.w = true, w
		return &c.first
	case c.first.w == w:
		return &c.first
	case c.last < len(c.more) && c.more[c.last].w == w:
		return &c.more[c.last]
	}
	i := sort.Search(len(c.more), func(i int) bool { return c.more[i].w >= w })
	if i == len(c.more) || c.more[i].w != w {
		if c.more == nil {
			// Past one rate there are usually several — every capped
			// stratum of a resolution has its own.
			c.more = make([]class, 0, 8)
		}
		c.more = append(c.more, class{})
		copy(c.more[i+1:], c.more[i:])
		c.more[i] = class{w: w}
	}
	c.last = i
	return &c.more[i]
}

// each visits the classes in ascending weight, the one order every derived
// sum is taken in: which class happened to arrive first, or how partials
// were merged, then cannot move a bit of it.
func (c *classes) each(f func(*class)) {
	if !c.live {
		return
	}
	first := &c.first
	for i := range c.more {
		if first != nil && first.w < c.more[i].w {
			f(first)
			first = nil
		}
		f(&c.more[i])
	}
	if first != nil {
		f(first)
	}
}

// merge adds other's classes into c, moment by moment.
func (c *classes) merge(other *classes) {
	other.each(func(o *class) {
		m := c.find(o.w)
		m.N += o.N
		m.SumX += o.SumX
		m.SumXX += o.SumXX
	})
}

// clone returns a copy that shares no memory with c.
func (c *classes) clone() classes {
	cp := *c
	if c.more != nil {
		cp.more = append(make([]class, 0, len(c.more)), c.more...)
	}
	return cp
}

// Tally counts rows by weight — the exact form of a Horvitz–Thompson count
// Σ 1/rate. Counts are integers, so tallies merge exactly in any order, and
// Sum weighs each class once. The zero value is an empty tally; a copy of
// one in use shares its memory, so copy a Tally only to move it.
type Tally struct{ cs classes }

// Add records n rows of weight w.
func (t *Tally) Add(w float64, n int64) {
	if n > 0 {
		t.cs.find(w).N += n
	}
}

// Merge adds other's counts to t; other is left as it was.
func (t *Tally) Merge(other *Tally) { t.cs.merge(&other.cs) }

// Sum returns Σ_c n_c·w_c over the classes in ascending weight.
func (t *Tally) Sum() float64 {
	sum := 0.0
	t.cs.each(func(c *class) { sum += float64(c.N) * c.w })
	return sum
}

// Acc accumulates matching rows of one (group, aggregate) pair from a
// weighted sample. Each matching row carries the effective sampling rate
// with which it entered the sample; weight w = 1/rate. Base tables have
// rate 1 everywhere, making every estimate exact.
//
// As in Table 2, accumulation is per stratum weight: an Acc keeps the raw
// moments (n, Σx, Σx²) of its rows per distinct weight, and only Estimate
// multiplies by a weight — once per class, not once per row (see the
// package comment for the sums it derives). A COUNT keeps only n. Every
// way of adding rows updates this one state with the same additions in the
// same order, so adding rows one at a time, in batches, by index or by
// count leaves an Acc bit-identical.
type Acc struct {
	kind AggKind
	p    float64 // quantile level for AggQuantile

	cs   classes
	vals []weightedVal // retained only for quantiles
}

// NewAcc creates an accumulator. p is the quantile level and is ignored
// for other aggregate kinds.
func NewAcc(kind AggKind, p float64) *Acc {
	return &Acc{kind: kind, p: p}
}

// Kind returns the aggregate kind.
func (a *Acc) Kind() AggKind { return a.kind }

// class returns the weight class of rows sampled at rate; a rate outside
// (0, 1] weighs 1.
func (a *Acc) class(rate float64) *class {
	w := 1.0
	if rate > 0 && rate < 1 {
		w = 1 / rate
	}
	if a.cs.live && a.cs.first.w == w { // inlined into Add: a fifth off a per-row add
		return &a.cs.first
	}
	return a.cs.find(w)
}

// Number is the element type of a column the fold kernels read in place.
type Number interface{ ~int64 | ~float64 }

// Add records one matching row with value x sampled at the given rate.
func (a *Acc) Add(x, rate float64) {
	c := a.class(rate)
	c.N++
	if a.kind == AggCount {
		return
	}
	c.SumX += x
	c.SumXX += x * x
	if a.kind.NeedsValues() {
		a.vals = append(a.vals, weightedVal{x: x, w: c.w})
	}
}

// AddCount records n matching rows of value 1 sampled at rate — what a
// COUNT adds per row — as Add would one at a time.
func (a *Acc) AddCount(n int, rate float64) {
	if n <= 0 {
		return
	}
	c := a.class(rate)
	c.N += int64(n)
	if a.kind == AggCount {
		return
	}
	for j := 0; j < n; j++ {
		c.SumX++
		c.SumXX++
	}
	if a.kind.NeedsValues() {
		for j := 0; j < n; j++ {
			a.vals = append(a.vals, weightedVal{x: 1, w: c.w})
		}
	}
}

// AddRange records every element of xs as a matching row sampled at rate,
// in order, as Add would one at a time.
func AddRange[T Number](a *Acc, xs []T, rate float64) {
	if len(xs) == 0 {
		return
	}
	c := a.class(rate)
	c.N += int64(len(xs))
	if a.kind == AggCount {
		return
	}
	sx, sxx := c.SumX, c.SumXX
	for _, v := range xs {
		x := float64(v)
		sx += x
		sxx += x * x
	}
	c.SumX, c.SumXX = sx, sxx
	if a.kind.NeedsValues() {
		for _, v := range xs {
			a.vals = append(a.vals, weightedVal{x: float64(v), w: c.w})
		}
	}
}

// AddIndexed records rows idxs of the column src as matching rows sampled
// at rate, in idxs order, as Add would one at a time: the fold reads the
// column in place.
func AddIndexed[T Number](a *Acc, src []T, idxs []int32, rate float64) {
	if len(idxs) == 0 {
		return
	}
	c := a.class(rate)
	c.N += int64(len(idxs))
	if a.kind == AggCount {
		return
	}
	sx, sxx := c.SumX, c.SumXX
	for _, i := range idxs {
		x := float64(src[i])
		sx += x
		sxx += x * x
	}
	c.SumX, c.SumXX = sx, sxx
	if a.kind.NeedsValues() {
		for _, i := range idxs {
			a.vals = append(a.vals, weightedVal{x: float64(src[i]), w: c.w})
		}
	}
}

// Slot records n matching rows sampled at rate whose values the caller
// adds itself — FoldByCode, for a scan folding many groups in one pass over
// a column — and returns the moments to add them to. The pointer is good
// until rows of another rate are added to a. Not for quantiles, which
// retain their values.
func (a *Acc) Slot(n int, rate float64) *Moments {
	c := a.class(rate)
	c.N += int64(n)
	return &c.Moments
}

// FoldByCode adds rows idxs of the column src to the moments their
// dictionary codes select — slots[codes[i]] gains src[i] and its square —
// in idxs order, so each slot sees its rows in the order Add would.
func FoldByCode[T Number](slots []*Moments, codes []uint32, src []T, idxs []int32) {
	for _, i := range idxs {
		m, x := slots[codes[i]], float64(src[i])
		m.SumX += x
		m.SumXX += x * x
	}
}

// Merge folds other into a (parallel partial aggregation). The state is raw
// moments per weight class, so combining is addition class by class — the
// Chan et al. parallel-merge formulation of mean/variance expressed over
// raw moments — and the row counts per weight combine exactly, in any
// order. Quantile value buffers concatenate; weightedQuantile sorts with a
// total order, so the estimate depends only on the merged multiset, not the
// merge schedule. Callers who need bit-identical floating-point results
// across worker counts must additionally fold partials in a deterministic
// order (see exec.MergePartials).
func (a *Acc) Merge(other *Acc) {
	a.cs.merge(&other.cs)
	a.vals = append(a.vals, other.vals...)
}

// Clone returns an independent copy of the accumulator (the class list and
// the quantile value buffer are copied, not aliased), so merging into the
// clone leaves the original usable.
func (a *Acc) Clone() *Acc {
	cp := *a
	cp.cs = a.cs.clone()
	if a.vals != nil {
		cp.vals = append(make([]weightedVal, 0, len(a.vals)), a.vals...)
	}
	return &cp
}

// sums are the weighted sums the Table 2 estimators read, derived from the
// per-class moments (see the package comment).
type sums struct {
	rows   int64
	w      float64 // Σ w            (HT count estimate)
	w2     float64 // Σ w²
	wx     float64 // Σ w·x          (HT sum estimate)
	wx2    float64 // Σ w·x²
	ww1    float64 // Σ w(w−1)       (Poisson-HT count variance)
	ww1x2  float64 // Σ w(w−1)x²     (Poisson-HT sum variance)
	allOne bool    // every weight was exactly 1 → estimate is exact
}

// sums derives the weighted sums, visiting classes in ascending weight.
func (a *Acc) sums() sums {
	s := sums{allOne: true}
	a.cs.each(func(c *class) {
		n, w := float64(c.N), c.w
		ww1 := w * (w - 1)
		s.rows += c.N
		s.w += n * w
		s.w2 += n * (w * w)
		s.wx += w * c.SumX
		s.wx2 += w * c.SumXX
		s.ww1 += n * ww1
		s.ww1x2 += ww1 * c.SumXX
		if w != 1 {
			s.allOne = false
		}
	})
	return s
}

// effRows returns the effective sample size (Σw)²/Σw².
func (s *sums) effRows() float64 {
	if s.w2 == 0 {
		return 0
	}
	return s.w * s.w / s.w2
}

// weightedVariance returns the weighted population variance of x,
// S² = Σw(x−μ)²/Σw with μ the weighted mean.
func (s *sums) weightedVariance() float64 {
	if s.w == 0 {
		return 0
	}
	mu := s.wx / s.w
	v := s.wx2/s.w - mu*mu
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
	s := a.sums()
	e := Estimate{Confidence: conf, Rows: s.rows, EffRows: s.effRows(), Exact: s.allOne}
	if s.rows == 0 {
		return e
	}
	switch a.kind {
	case AggCount:
		// Table 2: N̂ = Σw; Var(N̂) = Σ w(w−1) (Poisson-design HT
		// estimator; reduces to N²c(1−c)/n under uniform rates for
		// small c).
		e.Point = s.w
		e.StdErr = math.Sqrt(math.Max(s.ww1, 0))
	case AggSum:
		// Table 2: Ŝ = Σw·x; Var(Ŝ) = Σ w(w−1)x² plus the
		// within-replicate variance term N̂·S²ₙ·(deff) captured by the
		// HT estimator under Poisson sampling.
		e.Point = s.wx
		e.StdErr = math.Sqrt(math.Max(s.ww1x2, 0))
	case AggAvg:
		// Table 2: X̄ = Σwx/Σw; Var(X̄) = S²ₙ/n with n the effective
		// sample size under unequal weights.
		e.Point = s.wx / s.w
		if e.EffRows > 0 {
			e.StdErr = math.Sqrt(s.weightedVariance() / e.EffRows)
		}
	case AggQuantile:
		e.Point = a.weightedQuantile(a.p)
		if !s.allOne {
			e.StdErr = a.quantileStdErr(e.EffRows)
		}
	}
	if s.allOne {
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
	target := p * a.sums().w
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
// f(x_p) ≈ 2δ / (x_{p+δ} − x_{p−δ}), with n the effective sample size.
func (a *Acc) quantileStdErr(n float64) float64 {
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
