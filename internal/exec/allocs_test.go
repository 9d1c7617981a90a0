//go:build !race

package exec

import (
	"context"
	"testing"

	"blinkdb/internal/storage"
)

// TestSpanScanSteadyStateZeroAlloc pins the span scan at zero allocations
// once the scratch (bitmaps, index buffers, the per-chunk dictionary
// verdict, group and slot tables) and the group states — their weight
// classes included — are warm, over chunks of many blocks and every lane:
// the single-group fold from a selection, the per-code fold of a dictionary
// GROUP BY, the staged fold of a filtered RLE one and its all-rows fold by
// runs, and a span cut at every change of sampling rate under a cap.
// COUNT/SUM/AVG only: quantile accumulators buffer samples by design.
func TestSpanScanSteadyStateZeroAlloc(t *testing.T) {
	sorted := stratSortedTable(t, true)              // 128-row blocks, strata sorted: runs, tight zones
	weighted := randomWeightedTable(t, 3, 6000, 101) // 101-row blocks, dictionary columns, a metadata run a row
	for _, tc := range []struct {
		tab *storage.Table
		src string
	}{
		{sorted, `SELECT COUNT(*), AVG(v) FROM strat WHERE v < 40`},
		{sorted, `SELECT COUNT(*), AVG(v) FROM strat GROUP BY strat`},
		{sorted, `SELECT COUNT(*), SUM(v) FROM strat WHERE tier >= 2 AND tier < 20 GROUP BY strat`},
		{weighted, `SELECT SUM(sessiontime) FROM sessions WHERE city = 'NY' AND code < 300`},
		{weighted, `SELECT COUNT(*), AVG(sessiontime) FROM sessions WHERE code < 900 GROUP BY city`},
		{weighted, `SELECT COUNT(*) FROM sessions WHERE city = 'NY' OR os = 'Linux' GROUP BY os`},
	} {
		p := compile(t, tc.src, tc.tab.Schema)
		rt := p.runtime()
		for name, in := range map[string]Input{"table": FromTable(tc.tab), "capped": viewOf(tc.tab.Schema, tc.tab.Blocks, 120)} {
			if len(tc.tab.Chunks()) != 1 || len(in.ranges()) != 1 {
				t.Fatal("the table is meant to be one chunk scanned as one range")
			}
			sc := &colScratch{}
			pt := &Partial{groups: make(map[uint64][]*groupState)}
			scan := func() { pt.scanBlocks(p, rt, in, 0, len(in.Blocks), nil, sc) }
			scan()
			if a := testing.AllocsPerRun(20, scan); a != 0 {
				t.Errorf("%s over %s: steady-state span scan allocates %.1f objects a pass, want 0", tc.src, name, a)
			}
		}
	}
}

// TestProbeScanAllocs pins the allocation cost of the benchmark's probe
// shape — a 10k-row, 60-block GROUP BY through the ctx entry point — so
// per-block costs cannot creep back: one Partial per block cost ≈2.1k
// allocations here (60 group maps, merges and clones); one Partial for
// the scan, finalized without sort.Slice's reflection swapper, measures 48.
// The ceiling is that plus a quarter. Not under -race: the detector
// allocates.
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
		const ceiling = 60
		t.Logf("workers=%d: %.0f allocs/op (ceiling %d)", w, allocs, ceiling)
		if allocs > ceiling {
			t.Errorf("workers=%d: probe-shaped scan allocates %.0f objects, ceiling %d", w, allocs, ceiling)
		}
	}
}
