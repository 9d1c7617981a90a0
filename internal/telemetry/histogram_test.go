package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestBucketOfEdges(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{math.NaN(), 0},
		{math.Inf(1), numBuckets - 1},
		{1e-300, 1}, // underflow clamps to the smallest value bucket
		{1e300, numBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	// Monotone: larger values never land in smaller buckets.
	prev := 0
	for v := 1e-12; v < 1e9; v *= 1.1 {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %v: %d < %d", v, b, prev)
		}
		prev = b
	}
	// Each in-range bucket's lower edge maps back to that bucket.
	for b := 2; b < numBuckets-1; b++ {
		lo := bucketLower(b)
		if got := bucketOf(lo); got != b {
			t.Fatalf("bucketOf(bucketLower(%d)=%v) = %d", b, lo, got)
		}
		if got := bucketOf(lo * 0.999); got != b-1 {
			t.Fatalf("just below bucket %d edge -> %d, want %d", b, got, b-1)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(float64(i)) // uniform 1..1000
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if got := s.Mean(); math.Abs(got-500.5) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	if s.Max != 1000 {
		t.Fatalf("max = %v", s.Max)
	}
	// Log buckets at 4/octave ⇒ ≤ ~13% relative error on quantiles.
	checks := []struct{ p, want float64 }{{0.50, 500}, {0.95, 950}, {0.99, 990}}
	for _, c := range checks {
		got := s.Quantile(c.p)
		if rel := math.Abs(got-c.want) / c.want; rel > 0.13 {
			t.Errorf("q%.2f = %v, want ~%v (rel err %.3f)", c.p, got, c.want, rel)
		}
	}
	if !(s.Quantile(0.5) <= s.Quantile(0.95) && s.Quantile(0.95) <= s.Quantile(0.99)) {
		t.Fatalf("quantiles not monotone: %v %v %v", s.Quantile(0.5), s.Quantile(0.95), s.Quantile(0.99))
	}
	if got := s.Quantile(1); got > s.Max {
		t.Fatalf("q1.0 = %v exceeds max %v", got, s.Max)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Record(0.25) // dyadic: exact bucket edge
	}
	s := h.Snapshot()
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(p); got != 0.25 {
			t.Fatalf("q%v = %v, want 0.25 (max-clamped)", p, got)
		}
	}
	if s.Sum != 2.5 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestHistogramZeros(t *testing.T) {
	var h Histogram
	h.Record(0)
	h.Record(0)
	h.Record(4)
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("median of {0,0,4} = %v, want 0", got)
	}
	if got := s.Quantile(1); got != 4 {
		t.Fatalf("q1 = %v, want 4", got)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(float64(i%100) / 64) // dyadic
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	var bucketTotal uint64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	want := float64(goroutines) * 1000 * (99 * 100 / 2) / (100 * 64)
	if s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
}
