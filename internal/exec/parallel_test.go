package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// randomWeightedTable builds a table whose rows carry stratum frequencies,
// so view inputs (viewOf) exercise non-uniform weights (the Horvitz–Thompson
// path) as well as the exact rate-1 path.
func randomWeightedTable(t testing.TB, seed int64, rows, rowsPerBlock int) *storage.Table {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "os", Kind: types.KindString},
		types.Column{Name: "code", Kind: types.KindInt},
		types.Column{Name: "sessiontime", Kind: types.KindFloat},
	)
	tab := storage.NewTable("sessions", schema)
	b := storage.NewBuilder(tab, rowsPerBlock, 4, storage.InMemory)
	rng := rand.New(rand.NewSource(seed))
	cities := []string{"NY", "NY", "NY", "SF", "SF", "LA", "Austin", "Boise"}
	oses := []string{"Win7", "OSX", "Linux"}
	freqs := []int64{0, 0, 50, 500, 5000}
	for i := 0; i < rows; i++ {
		st := types.Float(rng.ExpFloat64() * 100)
		if rng.Intn(40) == 0 {
			st = types.Null() // exercise NULL handling under merge
		}
		b.Append(types.Row{
			types.Str(cities[rng.Intn(len(cities))]),
			types.Str(oses[rng.Intn(len(oses))]),
			types.Int(int64(rng.Intn(1000))),
			st,
		}, storage.RowMeta{Rate: 1, StratumFreq: freqs[rng.Intn(len(freqs))]})
	}
	return b.Finish()
}

var equivalenceQueries = []string{
	`SELECT COUNT(*) FROM sessions`,
	`SELECT COUNT(*), SUM(sessiontime), AVG(sessiontime) FROM sessions GROUP BY city`,
	`SELECT AVG(sessiontime), MEDIAN(sessiontime) FROM sessions GROUP BY city, os`,
	`SELECT SUM(sessiontime) FROM sessions WHERE city = 'NY' AND code < 300`,
	`SELECT COUNT(*) FROM sessions WHERE city = 'NY' OR os = 'Linux' GROUP BY os`,
	`SELECT QUANTILE(sessiontime, 0.9) FROM sessions WHERE code >= 250 GROUP BY city`,
	`SELECT COUNT(*) FROM sessions WHERE city = 'Nowhere'`,                  // zero matches, global
	`SELECT AVG(sessiontime) FROM sessions WHERE code > 2000 GROUP BY city`, // zero matches, grouped
}

// TestParallelEquivalence asserts the acceptance criterion of the
// partitioned executor: for every seed, query shape and worker count —
// including more workers than blocks — RunParallel returns a Result that
// is bit-for-bit identical (reflect.DeepEqual over all float fields) to
// the Workers=1 run.
func TestParallelEquivalence(t *testing.T) {
	workerCounts := []int{2, 3, 5, 8, 17, 1 << 10}
	for _, seed := range []int64{1, 2, 3} {
		for _, rowsPerBlock := range []int{64, 509} { // many blocks / few blocks
			tab := randomWeightedTable(t, seed, 6000, rowsPerBlock)
			for _, src := range equivalenceQueries {
				p := compile(t, src, tab.Schema)
				for _, in := range []Input{
					FromTable(tab),
					viewOf(tab.Schema, tab.Blocks, 120, 400), // weighted rates, two deltas
				} {
					want := RunParallel(p, in, 0.95, 1)
					for _, w := range workerCounts {
						got := RunParallel(p, in, 0.95, w)
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("seed=%d rpb=%d workers=%d query=%q: parallel result diverged\nwant %+v\ngot  %+v",
								seed, rowsPerBlock, w, src, want, got)
						}
					}
				}
			}
		}
	}
}

// approxResultEqual compares two results semantically: integer counters
// and group keys exactly, float accumulations within relative tolerance.
// Used where two executions legitimately differ in float summation order
// (arbitrary partial splits), unlike RunParallel whose canonical partition
// makes results bit-identical.
func approxResultEqual(t *testing.T, want, got *Result) bool {
	t.Helper()
	feq := func(a, b float64) bool {
		d := math.Abs(a - b)
		return d <= 1e-9*(1+math.Abs(a)+math.Abs(b))
	}
	if want.RowsScanned != got.RowsScanned || want.RowsMatched != got.RowsMatched ||
		want.BytesScanned != got.BytesScanned ||
		want.MaxMatchedStratumFreq != got.MaxMatchedStratumFreq ||
		!feq(want.WeightedMatched, got.WeightedMatched) ||
		len(want.Groups) != len(got.Groups) {
		return false
	}
	for i := range want.Groups {
		wg, gg := want.Groups[i], got.Groups[i]
		if !groupKeysEqual(wg.Key, gg.Key) || len(wg.Estimates) != len(gg.Estimates) {
			return false
		}
		for j := range wg.Estimates {
			we, ge := wg.Estimates[j], gg.Estimates[j]
			if we.Rows != ge.Rows || we.Exact != ge.Exact ||
				!feq(we.Point, ge.Point) || !feq(we.StdErr, ge.StdErr) ||
				!feq(we.EffRows, ge.EffRows) {
				return false
			}
		}
	}
	return true
}

// mergePartials folds parts, in index order, into one Result at
// confidence: a scan's merge, over a materialized list of partials.
func mergePartials(p *Plan, parts []*Partial, confidence float64) *Result {
	m := NewMerger(p, len(parts))
	for i, pt := range parts {
		m.Add(i, pt)
	}
	return finishSpan(m, confidence, m.w, nil)
}

// numGroups returns the number of distinct groups a partial holds.
func numGroups(pt *Partial) int {
	n := 0
	for _, b := range pt.groups {
		n += len(b)
	}
	return n
}

// TestRunPartialMergeMatchesRun exercises the partial API directly:
// scanning arbitrary block splits and merging them in order must reproduce
// a one-worker run up to float summation order.
func TestRunPartialMergeMatchesRun(t *testing.T) {
	tab := randomWeightedTable(t, 7, 4000, 128)
	in := FromTable(tab)
	for _, src := range equivalenceQueries {
		p := compile(t, src, tab.Schema)
		want := RunParallel(p, in, 0.95, 1)
		for _, split := range [][]int{
			{0, len(tab.Blocks)},                      // one partial
			{0, 1, 2, len(tab.Blocks)},                // uneven
			{0, len(tab.Blocks) / 2, len(tab.Blocks)}, // halves
			{0, 1, 1, len(tab.Blocks)},                // empty range
		} {
			var parts []*Partial
			for i := 0; i+1 < len(split); i++ {
				parts = append(parts, runPartial(p, p.runtime(), in, split[i], split[i+1], nil, &colScratch{}))
			}
			got := mergePartials(p, parts, 0.95)
			if !approxResultEqual(t, want, got) {
				t.Fatalf("query %q split %v: merged partials diverge from Run\nwant %+v\ngot  %+v",
					src, split, want, got)
			}
		}
	}
}

// TestMergePartialsNonDestructive pins that a merger leaves its input
// partials reusable: merging the same partials twice (e.g. at two
// confidence levels) must not double-count.
func TestMergePartialsNonDestructive(t *testing.T) {
	tab := randomWeightedTable(t, 13, 2000, 128)
	in := FromTable(tab)
	p := compile(t, `SELECT COUNT(*), AVG(sessiontime), MEDIAN(sessiontime) FROM sessions GROUP BY city`, tab.Schema)
	mid := len(tab.Blocks) / 2
	parts := []*Partial{
		runPartial(p, p.runtime(), in, 0, mid, nil, &colScratch{}),
		runPartial(p, p.runtime(), in, mid, len(tab.Blocks), nil, &colScratch{}),
	}
	groupsBefore := []int{numGroups(parts[0]), numGroups(parts[1])}
	first := mergePartials(p, parts, 0.95)
	second := mergePartials(p, parts, 0.95)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("re-merging the same partials changed the result:\nfirst  %+v\nsecond %+v", first, second)
	}
	if numGroups(parts[0]) != groupsBefore[0] || numGroups(parts[1]) != groupsBefore[1] {
		t.Fatalf("merging mutated its input partials: groups %v -> %d/%d",
			groupsBefore, numGroups(parts[0]), numGroups(parts[1]))
	}
	at90 := mergePartials(p, parts, 0.90)
	if len(at90.Groups) != len(first.Groups) {
		t.Fatalf("confidence re-merge lost groups")
	}
	for i := range at90.Groups {
		if at90.Groups[i].Estimates[0].Point != first.Groups[i].Estimates[0].Point {
			t.Fatalf("points must not depend on confidence: %g vs %g",
				at90.Groups[i].Estimates[0].Point, first.Groups[i].Estimates[0].Point)
		}
	}
}

// TestParallelJoinEquivalence checks the join path under the same
// bit-identity contract.
func TestParallelJoinEquivalence(t *testing.T) {
	tab := randomWeightedTable(t, 11, 3000, 101)
	dimSchema := types.NewSchema(
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "region", Kind: types.KindString},
	)
	dim := storage.NewTable("cities", dimSchema)
	db := storage.NewBuilder(dim, 16, 1, storage.InMemory)
	for _, r := range [][2]string{
		{"NY", "east"}, {"SF", "west"}, {"LA", "west"}, {"Austin", "south"},
	} { // Boise intentionally missing: inner-join drops it
		db.AppendRow(types.Row{types.Str(r[0]), types.Str(r[1])})
	}
	db.Finish()

	combined, err := JoinedSchema(tab.Schema, []*storage.Table{dim})
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, `SELECT COUNT(*), AVG(sessiontime) FROM sessions GROUP BY region`, combined)
	spec := joinSpec(t, dim, 0, 0)
	in := FromTable(tab)
	want := runJoin(t, p, in, []JoinSpec{spec}, 1)
	if len(want.Groups) != 3 {
		t.Fatalf("join groups = %d, want 3 (east/south/west)", len(want.Groups))
	}
	for _, w := range []int{2, 4, 8, 1 << 10} {
		got := runJoin(t, p, in, []JoinSpec{spec}, w)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: join result diverged", w)
		}
	}
}

// TestScanPruningSkipsBlocks verifies that zone-map pruning folded into
// the scan keeps pruned blocks out of the scan counters on every path —
// and that pruning never changes the answer.
func TestScanPruningSkipsBlocks(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "day", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindFloat},
	)
	tab := storage.NewTable("clustered", schema)
	b := storage.NewBuilder(tab, 100, 1, storage.InMemory)
	// Clustered layout: block i holds days [100i, 100(i+1)).
	for i := 0; i < 1000; i++ {
		b.AppendRow(types.Row{types.Int(int64(i)), types.Float(float64(i % 7))})
	}
	b.Finish()
	if len(tab.Blocks) != 10 {
		t.Fatalf("blocks = %d", len(tab.Blocks))
	}
	p := compile(t, `SELECT COUNT(*), SUM(v) FROM clustered WHERE day >= 450 AND day < 550`, schema)
	for _, w := range []int{1, 4} {
		res := RunParallel(p, FromTable(tab), 0.95, w)
		// Only blocks 4 and 5 can overlap [450, 550).
		if res.RowsScanned != 200 {
			t.Errorf("workers=%d: RowsScanned = %d, want 200 (pruned blocks must not be read)", w, res.RowsScanned)
		}
		if res.RowsMatched != 100 {
			t.Errorf("workers=%d: RowsMatched = %d, want 100", w, res.RowsMatched)
		}
		if got := res.Groups[0].Estimates[0].Point; got != 100 {
			t.Errorf("workers=%d: COUNT = %g, want 100", w, got)
		}
		var total int64
		for _, blk := range tab.Blocks {
			total += blk.Bytes
		}
		if res.BytesScanned >= total {
			t.Errorf("workers=%d: BytesScanned %d not reduced by pruning (total %d)", w, res.BytesScanned, total)
		}
	}
}

// TestPartitionBlocksDeterminism pins the pricing partition (ScanShards):
// it depends only on the block count. The executor's own partition has
// the same property over row counts — TestScanRangesInvariants.
func TestPartitionBlocksDeterminism(t *testing.T) {
	for _, n := range []int{0, 1, 2, 255, 256, 257, 1000} {
		a := storage.PartitionBlocks(n, 256)
		b := storage.PartitionBlocks(n, 256)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("n=%d: partition not deterministic", n)
		}
		covered := 0
		prev := 0
		for _, r := range a {
			if r.Lo != prev || r.Hi < r.Lo {
				t.Fatalf("n=%d: ranges not contiguous: %+v", n, a)
			}
			covered += r.Len()
			prev = r.Hi
		}
		if covered != n {
			t.Fatalf("n=%d: partition covers %d blocks", n, covered)
		}
	}
}

func BenchmarkRunParallel(b *testing.B) {
	// Priced-block sizes: 3 rows is cmd/blinkdb's 200k-row table at 17 TB
	// scale (where per-block work once made this scan slower than a row
	// loop), 308 the repo benchmark's, 8192 the largest the engine cuts.
	// Throughput should barely depend on it: blocks are metadata.
	for _, perBlock := range []int{3, 308, 8192} {
		tab := randomWeightedTable(b, 9, 200000, perBlock)
		p := compile(b, `SELECT COUNT(*), SUM(sessiontime), AVG(sessiontime) FROM sessions WHERE code < 900 GROUP BY city`, tab.Schema)
		in := FromTable(tab)
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("rowsPerBlock=%d/workers=%d", perBlock, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					RunParallel(p, in, 0.95, w)
				}
				b.SetBytes(int64(tab.Bytes()))
			})
		}
	}
}
