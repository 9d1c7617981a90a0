package stats

import "math"

// The row-at-a-time forms of the accumulator and Table 2's closed-form
// uniform variances: the references the batch folds and the estimators
// are held to.

// AddRow records one matching row with value x: row r of its chunk, of
// class key k. Every batch form (AddRange, AddIndexed, AddValues,
// AddMasked, FoldByCode, FoldCodeMasked) must leave the state AddRow
// leaves, one row at a time.
func (a *Acc) AddRow(x float64, row int, k Key) {
	c := a.class(k)
	c.N++
	if a.kind == AggCount {
		return
	}
	c.add(x, row)
	if a.kind.NeedsValues() {
		a.vals = append(a.vals, keyedVal{x, k})
	}
}

// Add records one row with value x sampled at rate, as row 0 of a chunk: an
// accumulator fed this way, outside a scan, sums in one lane.
func (a *Acc) Add(x, rate float64) { a.AddRow(x, 0, RateKey(rate)) }

// Estimate produces the point estimate and CI at the given confidence, with
// keys read as weights (RateKey).
func (a *Acc) Estimate(conf float64) Estimate {
	return a.EstimateZ(conf, ZForConfidence(conf), Weights{})
}

// rateForCap is §3.1's effective sampling rate of a row of stratum
// frequency f read at cap K: min(1, K/f), and 1 for a row whose stratum
// fits under the cap (it is exact).
func rateForCap(f, cap int64) float64 {
	if f <= 0 || f <= cap {
		return 1
	}
	return float64(cap) / float64(f)
}

// UniformCountVariance is the textbook Table 2 COUNT variance
// N²·c(1−c)/n for a uniform sample: N total rows, n sample rows read,
// c the matching fraction.
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
