//go:build !race

package exec

import (
	"context"
	"testing"
)

// TestProbeScanAllocs pins the allocation cost of the benchmark's probe
// shape — a 10k-row, 60-block GROUP BY through the ctx entry point — so
// per-block costs cannot creep back: one Partial per block cost ≈2.1k
// allocations here (60 group maps, merges and clones); one Partial for
// the scan measures 80. The ceiling is that plus a quarter. Not under
// -race: the detector allocates.
func TestProbeScanAllocs(t *testing.T) {
	plain, _ := irregularTable(t, repeat(60, 170))
	p := compile(t, `SELECT COUNT(*), AVG(v) FROM t WHERE code < 500 GROUP BY city`, plain.Schema)
	in := FromTable(plain)
	for _, w := range []int{1, 8} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := RunJoin(context.Background(), p, in, nil, 0.95, w, nil); err != nil {
				t.Fatal(err)
			}
		})
		const ceiling = 100
		t.Logf("workers=%d: %.0f allocs/op (ceiling %d)", w, allocs, ceiling)
		if allocs > ceiling {
			t.Errorf("workers=%d: probe-shaped scan allocates %.0f objects, ceiling %d", w, allocs, ceiling)
		}
	}
}
