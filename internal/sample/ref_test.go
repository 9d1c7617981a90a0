package sample

import (
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// Scan iterates the view's rows, one materialized row at a time, with their
// per-view effective rates: the row-wise reading of a view that the tests
// hold a family's contents to.
func (v View) Scan(fn func(r types.Row, rate float64) bool) {
	cap := v.Cap()
	for i := 0; i <= v.Level; i++ {
		for _, b := range v.Family.Deltas[i].Blocks {
			for j, n := 0, b.NumRows(); j < n; j++ {
				if !fn(b.RowAt(j), RateForCap(b.MetaAt(j), cap)) {
					return
				}
			}
		}
	}
}

// RateForCap computes the effective sampling rate of a row with the given
// metadata when read at cap: min(1, K/F(x)) where F(x) is the row's stratum
// frequency in the base table (§3.1). A row whose stratum fits under the
// cap has rate 1 (it is exact).
func RateForCap(m storage.RowMeta, cap int64) float64 {
	f := m.StratumFreq
	if f <= 0 || f <= cap {
		return 1
	}
	return float64(cap) / float64(f)
}
