package telemetry

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-size, lock-free, log-bucketed histogram of
// non-negative float64 observations (seconds, rows, bytes, error
// half-widths — unit-agnostic). Buckets are logarithmic with 4
// sub-buckets per octave, so any quantile estimate carries at most
// ~2^(1/4)-1 ≈ 19% relative width (we report bucket midpoints, halving
// that). Record is wait-free apart from two CAS loops and performs zero
// allocations; concurrent recorders never block each other on a mutex.
//
// The zero value is ready to use.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	sum    atomicFloat
	max    atomicFloat
}

const (
	// numBuckets is fixed so HistSnapshot is a comparable array-backed
	// value.
	numBuckets = 256
	// subBits gives 2^subBits sub-buckets per power-of-two octave.
	subBits = 2
	// minExp is the Frexp exponent mapped to bucket 1. With 255 value
	// buckets at 4 per octave the span is ~63 octaves: ~2.9e-11 up to
	// ~5.4e8 (in seconds: tens of picoseconds to ~17 years). Values
	// outside clamp to the edge buckets; bucket 0 is reserved for
	// non-positive and NaN observations.
	minExp = -34
)

// bucketOf maps a value to its bucket index. Frexp gives v = frac·2^exp
// with frac ∈ [0.5, 1), so (frac·2 − 1) ∈ [0, 1) picks the sub-bucket.
func bucketOf(v float64) int {
	if !(v > 0) || math.IsInf(v, 1) {
		if math.IsInf(v, 1) {
			return numBuckets - 1
		}
		return 0
	}
	frac, exp := math.Frexp(v)
	b := (exp-minExp)<<subBits + int((frac*2-1)*(1<<subBits))
	if b < 1 {
		return 1
	}
	if b > numBuckets-1 {
		return numBuckets - 1
	}
	return b
}

// bucketLower returns the smallest value mapping to bucket b (b ≥ 1).
func bucketLower(b int) float64 {
	exp := b>>subBits + minExp
	sub := b & (1<<subBits - 1)
	return math.Ldexp(1+float64(sub)/(1<<subBits), exp-1)
}

// bucketMid returns the midpoint of bucket b, the quantile representative.
func bucketMid(b int) float64 {
	if b >= numBuckets-1 {
		return bucketLower(numBuckets - 1)
	}
	return (bucketLower(b) + bucketLower(b+1)) / 2
}

// Record adds one observation. Safe for concurrent use; 0 allocs/op
// (pinned by TestHistogramRecordZeroAllocs). The total count is derived
// from the buckets at Snapshot time, keeping the hot path to one bucket
// increment, one sum CAS and (usually) one max load.
func (h *Histogram) Record(v float64) {
	h.counts[bucketOf(v)].Add(1)
	h.sum.add(v)
	h.max.storeMax(v)
}

// Snapshot returns a point-in-time copy. Individual fields are loaded
// atomically; under concurrent recording the snapshot may straddle an
// in-flight Record (bucket updated, sum not yet), which is fine for
// monitoring — quantiles and means converge as counts grow.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.Sum = h.sum.load()
	s.Max = h.max.load()
	return s
}

// HistSnapshot is an immutable histogram state. It is a comparable value
// (== works), so merge-associativity tests can compare fold orders
// directly, mirroring the stats.Acc suite.
type HistSnapshot struct {
	Counts [numBuckets]uint64
	Count  uint64
	Sum    float64
	Max    float64
}

// Mean returns Sum/Count (0 for an empty snapshot).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns the value at quantile p ∈ [0, 1] — the midpoint of the
// bucket containing the ⌈p·Count⌉-th smallest observation, clamped to Max
// so single-bucket histograms never report above their largest
// observation. Bucket 0 (non-positive observations) reports as 0.
func (s HistSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for b := 0; b < numBuckets; b++ {
		seen += s.Counts[b]
		if seen >= rank {
			if b == 0 {
				return 0
			}
			v := bucketMid(b)
			if s.Max > 0 && v > s.Max {
				return s.Max
			}
			return v
		}
	}
	return s.Max
}

// atomicFloat is a float64 with atomic add, max and EWMA fold via CAS on
// the bit pattern. Sufficient for monitoring sums; no ordering guarantees
// beyond atomicity of each update.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) load() float64 {
	return math.Float64frombits(f.bits.Load())
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// fold moves f toward v as an EWMA, (1−costAlpha)·f + costAlpha·v; the
// first v (f still 0) sets it.
func (f *atomicFloat) fold(v float64) {
	for {
		old := f.bits.Load()
		next := v
		if prev := math.Float64frombits(old); prev > 0 {
			next = (1-costAlpha)*prev + costAlpha*v
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func (f *atomicFloat) storeMax(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
