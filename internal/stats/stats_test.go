package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZForConfidence(t *testing.T) {
	cases := []struct{ conf, z float64 }{
		{0.90, 1.6449}, {0.95, 1.9600}, {0.99, 2.5758},
	}
	for _, c := range cases {
		if got := ZForConfidence(c.conf); math.Abs(got-c.z) > 0.001 {
			t.Errorf("z(%.2f) = %.4f, want %.4f", c.conf, got, c.z)
		}
	}
	if ZForConfidence(0) != 0 {
		t.Error("z(0) should be 0")
	}
	if z := ZForConfidence(1); math.IsInf(z, 1) || z < 4 {
		t.Errorf("z(1) should be large finite, got %g", z)
	}
}

func TestAggKindString(t *testing.T) {
	if AggCount.String() != "COUNT" || AggSum.String() != "SUM" ||
		AggAvg.String() != "AVG" || AggQuantile.String() != "QUANTILE" {
		t.Error("AggKind names wrong")
	}
	if !AggQuantile.NeedsValues() || AggSum.NeedsValues() {
		t.Error("NeedsValues wrong")
	}
}

func TestExactOnRateOne(t *testing.T) {
	for _, k := range []AggKind{AggCount, AggSum, AggAvg, AggQuantile} {
		a := NewAcc(k, 0.5)
		for i := 1; i <= 100; i++ {
			a.Add(float64(i), 1.0)
		}
		e := a.Estimate(0.95)
		if !e.Exact || e.StdErr != 0 || e.Bound != 0 {
			t.Errorf("%s: rate-1 sample should be exact, got %+v", k, e)
		}
		switch k {
		case AggCount:
			if e.Point != 100 {
				t.Errorf("COUNT = %g", e.Point)
			}
		case AggSum:
			if e.Point != 5050 {
				t.Errorf("SUM = %g", e.Point)
			}
		case AggAvg:
			if e.Point != 50.5 {
				t.Errorf("AVG = %g", e.Point)
			}
		case AggQuantile:
			if e.Point < 49 || e.Point > 52 {
				t.Errorf("MEDIAN = %g, want ≈ 50.5", e.Point)
			}
		}
	}
}

func TestEmptyAcc(t *testing.T) {
	a := NewAcc(AggAvg, 0)
	e := a.Estimate(0.95)
	if e.Point != 0 || e.Rows != 0 {
		t.Errorf("empty estimate = %+v", e)
	}
}

func TestCountUnbiasedUnderUniformSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, p = 100000, 0.01
	var sum float64
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		a := NewAcc(AggCount, 0)
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				a.Add(1, p)
			}
		}
		sum += a.Estimate(0.95).Point
	}
	mean := sum / trials
	if math.Abs(mean-n)/n > 0.02 {
		t.Errorf("mean COUNT estimate %.0f, want ≈ %d", mean, n)
	}
}

// coverage runs repeated sampling experiments and reports the fraction of
// trials whose CI contains the true value.
func coverage(t *testing.T, kind AggKind, q float64, truth float64,
	sampleOnce func(a *Acc, rng *rand.Rand)) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	const trials = 400
	hit := 0
	for i := 0; i < trials; i++ {
		a := NewAcc(kind, q)
		sampleOnce(a, rng)
		e := a.Estimate(0.95)
		if math.Abs(e.Point-truth) <= e.Bound {
			hit++
		}
	}
	return float64(hit) / trials
}

func TestAvgCICoverage(t *testing.T) {
	// Population: exponential-ish values; uniform 2% sampling.
	pop := make([]float64, 50000)
	rng := rand.New(rand.NewSource(1))
	truth := 0.0
	for i := range pop {
		pop[i] = rng.ExpFloat64() * 100
		truth += pop[i]
	}
	truth /= float64(len(pop))
	cov := coverage(t, AggAvg, 0, truth, func(a *Acc, rng *rand.Rand) {
		for _, x := range pop {
			if rng.Float64() < 0.02 {
				a.Add(x, 0.02)
			}
		}
	})
	if cov < 0.90 || cov > 0.99 {
		t.Errorf("AVG 95%% CI empirical coverage = %.3f", cov)
	}
}

func TestSumCICoverage(t *testing.T) {
	pop := make([]float64, 50000)
	rng := rand.New(rand.NewSource(2))
	truth := 0.0
	for i := range pop {
		pop[i] = rng.Float64() * 10
		truth += pop[i]
	}
	cov := coverage(t, AggSum, 0, truth, func(a *Acc, rng *rand.Rand) {
		for _, x := range pop {
			if rng.Float64() < 0.02 {
				a.Add(x, 0.02)
			}
		}
	})
	if cov < 0.90 || cov > 0.99 {
		t.Errorf("SUM 95%% CI empirical coverage = %.3f", cov)
	}
}

func TestCountCICoverage(t *testing.T) {
	const n = 50000
	cov := coverage(t, AggCount, 0, n, func(a *Acc, rng *rand.Rand) {
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.02 {
				a.Add(1, 0.02)
			}
		}
	})
	if cov < 0.90 || cov > 0.99 {
		t.Errorf("COUNT 95%% CI empirical coverage = %.3f", cov)
	}
}

func TestQuantileCICoverage(t *testing.T) {
	pop := make([]float64, 20000)
	rng := rand.New(rand.NewSource(3))
	for i := range pop {
		pop[i] = rng.NormFloat64()*10 + 100
	}
	// True median of the population.
	sorted := append([]float64{}, pop...)
	for i := 1; i < len(sorted); i++ { // insertion-free: use sort via Acc
	}
	aAll := NewAcc(AggQuantile, 0.5)
	for _, x := range pop {
		aAll.Add(x, 1)
	}
	truth := aAll.Estimate(0.95).Point
	_ = sorted
	cov := coverage(t, AggQuantile, 0.5, truth, func(a *Acc, rng *rand.Rand) {
		for _, x := range pop {
			if rng.Float64() < 0.05 {
				a.Add(x, 0.05)
			}
		}
	})
	if cov < 0.88 || cov > 1.0 {
		t.Errorf("QUANTILE 95%% CI empirical coverage = %.3f", cov)
	}
}

// TestStratifiedBiasCorrection reproduces the §4.3 worked example: the
// Sessions table stratified on Browser with K=1; SUM(SessionTime) grouped
// by City must be estimated with per-row rates (Firefox row at 0.33).
func TestStratifiedBiasCorrection(t *testing.T) {
	// Sample rows for New York: yahoo/Firefox 20 @ rate 1/3,
	// google/Safari 82 @ rate 1.
	ny := NewAcc(AggSum, 0)
	ny.Add(20, 1.0/3.0)
	ny.Add(82, 1.0)
	got := ny.Estimate(0.95).Point
	want := 3.0*20 + 82 // paper: 1/0.33·20 + 1/1·82
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("NY SUM = %g, want %g", got, want)
	}

	cam := NewAcc(AggSum, 0)
	cam.Add(22, 1.0)
	if got := cam.Estimate(0.95).Point; got != 22 {
		t.Errorf("Cambridge SUM = %g, want 22", got)
	}
}

func TestMerge(t *testing.T) {
	full := NewAcc(AggAvg, 0)
	a := NewAcc(AggAvg, 0)
	b := NewAcc(AggAvg, 0)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		x := rng.Float64() * 50
		full.Add(x, 0.1)
		if i%2 == 0 {
			a.Add(x, 0.1)
		} else {
			b.Add(x, 0.1)
		}
	}
	a.Merge(b)
	ea, ef := a.Estimate(0.95), full.Estimate(0.95)
	if math.Abs(ea.Point-ef.Point) > 1e-9 || math.Abs(ea.StdErr-ef.StdErr) > 1e-9 {
		t.Errorf("merge mismatch: %+v vs %+v", ea, ef)
	}
	if ea.Rows != ef.Rows {
		t.Errorf("rows %d vs %d", ea.Rows, ef.Rows)
	}
}

func TestWeightedQuantileAgainstUnweighted(t *testing.T) {
	// Duplicating a row twice at weight 1 must equal one row at weight 2.
	a := NewAcc(AggQuantile, 0.5)
	b := NewAcc(AggQuantile, 0.5)
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, v := range vals {
		a.Add(v, 1)
		a.Add(v, 1)
		b.Add(v, 0.5) // weight 2
	}
	qa := a.Estimate(0.95).Point
	qb := b.Estimate(0.95).Point
	if math.Abs(qa-qb) > 0.51 {
		t.Errorf("weighted quantile %g vs duplicated %g", qb, qa)
	}
}

func TestQuantileEdgeLevels(t *testing.T) {
	a := NewAcc(AggQuantile, 0)
	for _, v := range []float64{3, 1, 2} {
		a.Add(v, 0.5)
	}
	q := a.weighed(Weights{}, a.sums(Weights{}).w)
	if q := q.quantile(0); q != 1 {
		t.Errorf("q0 = %g", q)
	}
	if q := q.quantile(1); q != 3 {
		t.Errorf("q1 = %g", q)
	}
}

func TestRelErr(t *testing.T) {
	e := Estimate{Point: 100, Bound: 5}
	if e.RelErr() != 0.05 {
		t.Errorf("RelErr = %g", e.RelErr())
	}
	if (Estimate{Point: 0, Bound: 1}).RelErr() != math.Inf(1) {
		t.Error("zero point should give infinite rel err")
	}
	if (Estimate{Point: 0, Bound: 0}).RelErr() != 0 {
		t.Error("zero bound is zero rel err")
	}
	if (Estimate{Point: 2, Bound: 1, Confidence: 0.95}).String() == "" {
		t.Error("String empty")
	}
}

func TestRequiredRowsForStdErr(t *testing.T) {
	// stderr ∝ 1/√n: halving the error quadruples the rows.
	got := RequiredRowsForStdErr(0.1, 1000, 0.05)
	if math.Abs(got-4000) > 1 {
		t.Errorf("required rows = %g, want 4000", got)
	}
	if !math.IsInf(RequiredRowsForStdErr(0.1, 0, 0.05), 1) {
		t.Error("zero current rows → infinite requirement")
	}
	if !math.IsInf(RequiredRowsForStdErr(0.1, 100, 0), 1) {
		t.Error("zero target → infinite requirement")
	}
	if RequiredRowsForStdErr(0, 100, 0.05) != 100 {
		t.Error("already-exact estimate needs no more rows")
	}
}

func TestUniformVarianceFormulas(t *testing.T) {
	// COUNT: N=1e6, n=1e4, c=0.5 → Var = 1e12/1e4·0.25 = 2.5e7.
	if got := UniformCountVariance(1e6, 1e4, 0.5); math.Abs(got-2.5e7) > 1 {
		t.Errorf("count var = %g", got)
	}
	if !math.IsInf(UniformCountVariance(1e6, 0, 0.5), 1) {
		t.Error("n=0 should be infinite")
	}
	if got := UniformAvgVariance(4.0, 100); got != 0.04 {
		t.Errorf("avg var = %g", got)
	}
	if !math.IsInf(UniformAvgVariance(4.0, 0), 1) {
		t.Error("n=0 should be infinite")
	}
}

// Property: stderr decreases (weakly) as more rows are added, for AVG.
func TestStdErrShrinksWithRows(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAcc(AggAvg, 0)
		for i := 0; i < 100; i++ {
			a.Add(rng.Float64()*100, 0.1)
		}
		e1 := a.Estimate(0.95)
		for i := 0; i < 900; i++ {
			a.Add(rng.Float64()*100, 0.1)
		}
		e2 := a.Estimate(0.95)
		return e2.StdErr < e1.StdErr*1.2 // allow variance growth noise
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: invalid rates are clamped to 1 rather than corrupting weights.
func TestInvalidRateClamped(t *testing.T) {
	a := NewAcc(AggCount, 0)
	a.Add(1, 0)
	a.Add(1, -3)
	a.Add(1, 2)
	e := a.Estimate(0.95)
	if e.Point != 3 || !e.Exact {
		t.Errorf("clamped rates should behave as rate 1: %+v", e)
	}
}

func BenchmarkAccAdd(b *testing.B) {
	a := NewAcc(AggAvg, 0)
	for i := 0; i < b.N; i++ {
		a.Add(float64(i%1000), 0.1)
	}
}

func BenchmarkQuantileEstimate(b *testing.B) {
	a := NewAcc(AggQuantile, 0.5)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		a.Add(rng.Float64(), 0.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Estimate(0.95)
	}
}
