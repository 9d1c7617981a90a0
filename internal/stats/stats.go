// Package stats implements BlinkDB's error-estimation machinery (§4.3 and
// Table 2): closed-form variance estimators for COUNT, SUM, AVG and
// QUANTILE over weighted (Horvitz–Thompson) samples, normal-approximation
// confidence intervals, and the per-row effective-sampling-rate bias
// correction required when answering from stratified samples.
//
// # Weigh once, at finalize
//
// Table 2's estimators are per stratum: sum a stratum's rows, then scale by
// its N/n. Acc accumulates the same way. Per weight class c it keeps the
// raw moments of its rows, n_c, Σx_c and Σx²_c, and Estimate derives the
// weighted sums the estimators read, one multiplication per class instead
// of six per row, visiting the classes in ascending key:
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
// alone: Σ weight over matching rows as an exact key → count table.
//
// # Keys
//
// A class is named by a Key, and its weight is applied only when the
// accumulator is finalized, by a Weights. A table's rows are keyed by their
// weight itself, 1/rate (RateKey). A sample family's rows are keyed by
// their stratum frequency f, raised to the cap of the delta that holds
// them (FreqKey): under cap K the weight is 1/(K/f) past the cap and 1
// under it, so it depends on the resolution an answer is read at, and
// moments folded for one resolution stay valid at every larger one. That
// is what lets a §4.4 refinement add the rows of one more delta to what it
// already holds instead of scanning again.
//
// # Lanes
//
// Each Σx and Σx² is kept as Lanes partial sums: row r of a chunk adds x
// and float64(x*x) — the square rounded on its own, never fused into the
// add — to lane r mod Lanes of its class, in row order; lanes merge lane by
// lane, and combine as (l0+l1)+(l2+l3) at finalize. The lanes are four
// independent addition chains the fold kernels (fold.go) run side by side,
// and since a row's lane depends on its row number alone, how rows were
// split between fold calls, spans or kernels moves no bit.
package stats

import (
	"fmt"
	"math"
	"slices"
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

// Key names a weight class: a table row's weight, or a sample row's stratum
// frequency raised to its delta's cap (see the package comment).
type Key float64

// RateKey is the key of a table's rows sampled at rate: their weight
// 1/rate, where a rate outside (0, 1] weighs 1.
func RateKey(rate float64) Key {
	if rate > 0 && rate < 1 {
		return Key(1 / rate)
	}
	return 1
}

// FreqKey is the key of a sample family's rows of stratum frequency f held
// in the delta of the resolution with cap floor: max(f, floor). Every
// resolution that holds the delta has a cap of at least floor, under which
// strata of f ≤ floor weigh 1 — so they share one class.
func FreqKey(f, floor int64) Key { return Key(max(f, floor)) }

// Weights turns keys into weights when an accumulator is finalized. The
// zero value reads keys as weights (RateKey). With Cap K > 0 keys are
// stratum frequencies (FreqKey) read at cap K: a key past the cap weighs
// 1/(K/f) — the inverse of §3.1's rate min(1, K/f) — and any other weighs
// 1.
type Weights struct{ Cap int64 }

// Of returns the weight of class key k.
func (ws Weights) Of(k Key) float64 {
	switch {
	case ws.Cap <= 0:
		return float64(k)
	case float64(k) <= float64(ws.Cap):
		return 1
	}
	return 1 / (float64(ws.Cap) / float64(k))
}

// Lanes is how many partial sums each moment keeps (see the package
// comment). Row r adds to lane r & (Lanes-1).
const Lanes = 4

// Moments are the raw moments of a set of rows: how many, and Σx and Σx²
// in Lanes partial sums. They carry no weight — an accumulator keeps one
// set per class and applies the weights when it estimates.
type Moments struct {
	N     int64
	SumX  [Lanes]float64
	SumXX [Lanes]float64
}

// add adds row's x to its lane.
func (m *Moments) add(x float64, row int) {
	l := row & (Lanes - 1)
	m.SumX[l] += x
	m.SumXX[l] += float64(x * x)
}

// merge adds other's moments into m, lane by lane.
func (m *Moments) merge(other *Moments) {
	m.N += other.N
	for l := range m.SumX {
		m.SumX[l] += other.SumX[l]
		m.SumXX[l] += other.SumXX[l]
	}
}

// combine folds lanes into one sum, in the pinned order (l0+l1)+(l2+l3).
func combine(l *[Lanes]float64) float64 { return (l[0] + l[1]) + (l[2] + l[3]) }

// class is the rows an accumulator saw under one key: one stratum's rows,
// or several strata that weigh alike at every resolution they are read at.
type class struct {
	k Key
	Moments
}

// classes is a set of weight classes keyed by Key. The first class to
// arrive is held inline — a group whose rows share one key, which is most
// groups, allocates nothing more — and later ones in a slice kept ascending
// in key. Lookups are by the last hit, then by search: rows arrive in runs
// of one key.
type classes struct {
	live  bool // first is in use
	first class
	more  []class
	last  int // index into more of the latest hit
}

// find returns the class of key k, adding it when new. The pointer is good
// until the next find of a new key.
func (c *classes) find(k Key) *class {
	switch {
	case !c.live:
		c.live, c.first.k = true, k
		return &c.first
	case c.first.k == k:
		return &c.first
	case c.last < len(c.more) && c.more[c.last].k == k:
		return &c.more[c.last]
	}
	i := sort.Search(len(c.more), func(i int) bool { return c.more[i].k >= k })
	if i == len(c.more) || c.more[i].k != k {
		if c.more == nil {
			// Past one key there are usually several — every capped
			// stratum of a family has its own.
			c.more = make([]class, 0, 8)
		}
		c.more = append(c.more, class{})
		copy(c.more[i+1:], c.more[i:])
		c.more[i] = class{k: k}
	}
	c.last = i
	return &c.more[i]
}

// each visits the classes in ascending key, the one order every derived
// sum is taken in: which class happened to arrive first, or how partials
// were merged, then cannot move a bit of it.
func (c *classes) each(f func(*class)) {
	if !c.live {
		return
	}
	first := &c.first
	for i := range c.more {
		if first != nil && first.k < c.more[i].k {
			f(first)
			first = nil
		}
		f(&c.more[i])
	}
	if first != nil {
		f(first)
	}
}

// merge adds other's classes into c, lane by lane.
func (c *classes) merge(other *classes) {
	other.each(func(o *class) { c.find(o.k).merge(&o.Moments) })
}

// Tally counts rows by key — the exact form of a Horvitz–Thompson count
// Σ weight. Counts are integers, so tallies merge exactly in any order, and
// Sum weighs each class once. The zero value is an empty tally; a copy of
// one in use shares its memory, so copy a Tally only to move it.
type Tally struct{ cs classes }

// Add records n rows of key k.
func (t *Tally) Add(k Key, n int64) {
	if n > 0 {
		t.cs.find(k).N += n
	}
}

// Merge adds other's counts to t; other is left as it was.
func (t *Tally) Merge(other *Tally) { t.cs.merge(&other.cs) }

// Sum returns Σ_c n_c·w_c over the classes in ascending key, weighed by ws.
func (t *Tally) Sum(ws Weights) float64 {
	sum := 0.0
	t.cs.each(func(c *class) { sum += float64(float64(c.N) * ws.Of(c.k)) })
	return sum
}

// Acc accumulates matching rows of one (group, aggregate) pair from a
// weighted sample. Each matching row carries its class key (see the
// package comment); an estimate weighs every class once.
//
// Every way of adding rows — a range, by index, by selection bitmap, by
// count, by dictionary code — updates this one state with the same
// additions to the same lanes in the same order, so each leaves an Acc
// bit-identical to adding its rows one at a time (AddRow, the tests'
// reference). Finalizing (EstimateZ) reads the state and changes nothing, so
// one accumulator may be finalized at several caps, concurrently.
type Acc struct {
	kind AggKind
	p    float64 // quantile level for AggQuantile

	cs   classes
	vals []keyedVal // retained only for quantiles
}

// keyedVal is a retained value and its class key.
type keyedVal struct {
	x float64
	k Key
}

// NewAcc creates an accumulator. p is the quantile level and is ignored
// for other aggregate kinds.
func NewAcc(kind AggKind, p float64) *Acc {
	return &Acc{kind: kind, p: p}
}

// class returns the class of key k.
func (a *Acc) class(k Key) *class {
	if a.cs.live && a.cs.first.k == k { // inlined into the adds: a fifth off a per-row add
		return &a.cs.first
	}
	return a.cs.find(k)
}

// AddCount records n matching rows of key k in a COUNT accumulator, which
// keeps their number alone.
func (a *Acc) AddCount(n int, k Key) {
	if a.kind != AggCount {
		panic("stats: AddCount on a " + a.kind.String())
	}
	if n > 0 {
		a.class(k).N += int64(n)
	}
}

// Slot records n matching rows of key k whose values the caller adds itself
// — FoldByCode or FoldCodeMasked, for a scan folding many groups in one
// pass over a column — and returns the moments to add them to. The pointer
// is good until rows of another key are added to a. Not for quantiles,
// which retain their values.
func (a *Acc) Slot(n int, k Key) *Moments {
	c := a.class(k)
	c.N += int64(n)
	return &c.Moments
}

// Merge folds other into a (parallel partial aggregation). The state is raw
// moments per class and lane, so combining is addition class by class and
// lane by lane — the Chan et al. parallel-merge formulation of
// mean/variance expressed over raw moments — and the row counts per class
// combine exactly, in any order. Quantile value buffers concatenate;
// finalizing sorts with a total order, so the estimate depends only on the
// merged multiset, not the merge schedule. Callers who need bit-identical
// floating-point results across worker counts must additionally fold
// partials in a deterministic order (see exec.Merger).
func (a *Acc) Merge(other *Acc) {
	a.cs.merge(&other.cs)
	a.vals = append(a.vals, other.vals...)
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

// sums derives the weighted sums under ws, visiting classes in ascending
// key. Every product is rounded on its own (float64(…)): a multiply fused
// into the add would round once where amd64 rounds twice.
func (a *Acc) sums(ws Weights) sums {
	s := sums{allOne: true}
	a.cs.each(func(c *class) {
		n, w := float64(c.N), ws.Of(c.k)
		sx, sxx := combine(&c.SumX), combine(&c.SumXX)
		ww1 := float64(w * (w - 1))
		s.rows += c.N
		s.w += float64(n * w)
		s.w2 += float64(n * float64(w*w))
		s.wx += float64(w * sx)
		s.wx2 += float64(w * sxx)
		s.ww1 += float64(n * ww1)
		s.ww1x2 += float64(ww1 * sxx)
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
	v := s.wx2/s.w - float64(mu*mu)
	if v < 0 {
		v = 0 // numeric noise
	}
	return v
}

// EstimateZ is Estimate for a caller that finalizes many accumulators at
// one confidence and weighing — z = ZForConfidence(conf), computed once for
// all of them, and ws. It reads a and changes nothing.
func (a *Acc) EstimateZ(conf, z float64, ws Weights) Estimate {
	s := a.sums(ws)
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
		q := a.weighed(ws, s.w)
		e.Point = q.quantile(a.p)
		if !s.allOne {
			e.StdErr = q.stdErr(a.p, e.EffRows)
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

// weightedVal is a retained value with its weight at finalize.
type weightedVal struct {
	x float64
	w float64
}

// weighedVals are a quantile's values weighed and sorted, and their total
// weight.
type weighedVals struct {
	vals []weightedVal
	sumW float64
}

// weighed returns a's retained values weighed by ws, in a fresh buffer
// sorted by the total order (x, then w): ties between equal values with
// different weights resolve identically however the buffer was assembled,
// so merged partials quantile the same as a sequential scan.
func (a *Acc) weighed(ws Weights, sumW float64) weighedVals {
	vals := make([]weightedVal, len(a.vals))
	for i, v := range a.vals {
		vals[i] = weightedVal{v.x, ws.Of(v.k)}
	}
	slices.SortFunc(vals, func(a, b weightedVal) int {
		if c := cmpFloat(a.x, b.x); c != 0 {
			return c
		}
		return cmpFloat(a.w, b.w)
	})
	return weighedVals{vals, sumW}
}

// cmpFloat orders as the < of the former sort.Slice comparator: NaNs
// compare equal to everything, so they keep no defined place.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// quantile computes the weighted interpolated p-quantile, generalising
// Table 2's x_⌊h⌋ + (h−⌊h⌋)(x_⌈h⌉−x_⌊h⌋).
func (q weighedVals) quantile(p float64) float64 {
	vals := q.vals
	if len(vals) == 0 {
		return 0
	}
	if p <= 0 {
		return vals[0].x
	}
	if p >= 1 {
		return vals[len(vals)-1].x
	}
	target := float64(p * q.sumW)
	cum := 0.0
	for i, v := range vals {
		next := cum + v.w
		if next >= target {
			// Past the midpoint of this value's weight mass, interpolate
			// linearly toward the next order statistic; this generalises
			// Table 2's x_⌊h⌋ + (h−⌊h⌋)(x_⌈h⌉−x_⌊h⌋) to weighted rows.
			if i+1 < len(vals) && v.w > 0 {
				if frac := (target - cum) / v.w; frac > 0.5 {
					return v.x + float64((vals[i+1].x-v.x)*(frac-0.5))
				}
			}
			return v.x
		}
		cum = next
	}
	return vals[len(vals)-1].x
}

// stdErr estimates Table 2's quantile stderr √(p(1−p)/n)/f(x_p) using a
// finite-difference density estimate: f(x_p) ≈ 2δ / (x_{p+δ} − x_{p−δ}),
// with n the effective sample size.
func (q weighedVals) stdErr(p, n float64) float64 {
	if n < 4 {
		return math.Abs(q.quantile(0.75)-q.quantile(0.25)) / 2
	}
	delta := math.Min(0.1, math.Max(0.01, 1/math.Sqrt(n)))
	lo := clampQ(p - delta)
	hi := clampQ(p + delta)
	spread := q.quantile(hi) - q.quantile(lo)
	if spread <= 0 {
		return 0 // locally constant data: quantile is pinned
	}
	f := (hi - lo) / spread
	return math.Sqrt(float64(p*(1-p))/n) / f
}

func clampQ(p float64) float64 {
	return math.Max(0.001, math.Min(0.999, p))
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
