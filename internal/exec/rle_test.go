package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"blinkdb/internal/colstore"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// stratSortedTable builds a table shaped like a stratified sample's
// physical layout: rows sorted by the stratification column (long runs),
// a block-monotonic int column (tight zones → all-true/all-false blocks),
// NULL runs, and a mixed-kind column whose values also arrive in runs —
// run-length encoded, with the stratification columns hinted sorted. With
// rle false the same strata alternate row by row in pairs (0 with 1, 2
// with 3, …) and every other row's tier is one higher: only the longer
// stratum's tail of a pair keeps a run, too few for run-length encoding,
// so every column takes its plain typed encoding, while strat's and tier's
// zones stay two values wide.
func stratSortedTable(t testing.TB, rle bool) *storage.Table {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "strat", Kind: types.KindString},
		types.Column{Name: "tier", Kind: types.KindInt},
		types.Column{Name: "score", Kind: types.KindFloat},
		types.Column{Name: "v", Kind: types.KindFloat},
		types.Column{Name: "blob", Kind: types.KindFloat},
	)
	rng := rand.New(rand.NewSource(7))
	type stratRow struct {
		s, j int // stratum, row within it
		row  types.Row
	}
	var rows []stratRow
	for s := 0; s < 30; s++ {
		strat := types.Str(fmt.Sprintf("stratum-%02d", s))
		runLen := 120 + rng.Intn(160)
		for j := 0; j < runLen; j++ {
			// score: NULL runs for some strata, constant-ish runs elsewhere,
			// with a handful of kinds mixed in run-shaped stretches.
			var score types.Value
			switch s % 4 {
			case 0:
				score = types.Null()
			case 1:
				score = types.Float(float64(s))
			case 2:
				score = types.Int(int64(s * 10))
			default:
				score = types.Str("grade-" + string(rune('A'+s%5)))
			}
			rows = append(rows, stratRow{s, j, types.Row{
				strat, types.Null(), score,
				types.Float(rng.ExpFloat64() * 50),
				types.Float(rng.NormFloat64()),
			}})
		}
	}
	if !rle {
		sort.SliceStable(rows, func(a, b int) bool {
			x, y := rows[a], rows[b]
			return x.s/2 < y.s/2 || x.s/2 == y.s/2 && x.j < y.j
		})
	}
	tab := storage.NewTable("strat", schema)
	b := storage.NewBuilder(tab, 128, 4, storage.InMemory)
	if rle {
		b.HintSortedColumns(0, 1)
	}
	for i, r := range rows {
		tier := int64(i / 128) // monotonic per block → tight zones
		if !rle {
			tier += int64(i % 2)
		}
		r.row[1] = types.Int(tier)
		b.Append(r.row, storage.RowMeta{Rate: 1, StratumFreq: int64(100 + r.s)})
	}
	return b.Finish()
}

func hasRLEColumn(tab *storage.Table) bool {
	for _, d := range tab.Chunks() {
		for _, c := range d.Cols {
			if c.Enc == colstore.EncRLE {
				return true
			}
		}
	}
	return false
}

// TestThreeWayEquivalence is the scan kernels' acceptance gate: the
// plain-columnar and RLE-columnar tables of stratSortedTable must each
// return the oracle's Result for every query shape and worker count —
// including all-true/all-false zone blocks, NULL runs and mixed-kind run
// columns.
func TestThreeWayEquivalence(t *testing.T) {
	plain := stratSortedTable(t, false)
	rle := stratSortedTable(t, true)
	if hasRLEColumn(plain) {
		t.Fatal("plain leg holds an RLE column — it would test the RLE kernels twice")
	}
	if !hasRLEColumn(rle) {
		t.Fatal("RLE leg produced no RLE columns — the suite would be vacuous")
	}
	queries := []string{
		// tier is block-monotonic: these ranges make some blocks all-false
		// (pruned), some all-true (zone-implied), some mixed.
		`SELECT COUNT(*), SUM(v) FROM strat WHERE tier >= 10 AND tier < 25 GROUP BY strat`,
		`SELECT COUNT(*) FROM strat WHERE tier < 999`,                             // every block all-true
		`SELECT COUNT(*) FROM strat WHERE tier > 999`,                             // every block all-false
		`SELECT AVG(v) FROM strat WHERE strat = 'stratum-07'`,                     // RLE leaf, single-run strata
		`SELECT SUM(v), COUNT(score) FROM strat WHERE v < 40 GROUP BY strat`,      // mid-selectivity single leaf
		`SELECT COUNT(*) FROM strat WHERE v < 0.5 GROUP BY strat`,                 // sparse single leaf
		`SELECT AVG(score), MEDIAN(v) FROM strat WHERE score >= 5 GROUP BY strat`, // mixed-kind RLE column in pred+agg
		`SELECT SUM(score) FROM strat WHERE strat <> 'stratum-00' AND NOT (v <= 5)`,
		`SELECT COUNT(*), AVG(v) FROM strat WHERE score = 70 OR strat < 'stratum-03' GROUP BY tier`,
	}
	for _, src := range queries {
		p := compile(t, src, plain.Schema)
		for name, leg := range map[string]*storage.Table{"plain": plain, "rle": rle} {
			checkOracle(t, name+" "+src, p, FromTable(leg), nil)
			// Weighted variant: per-row weights from a view's cap.
			checkOracle(t, name+" weighted "+src, p, viewOf(leg.Schema, leg.Blocks, 150), nil)
		}
	}
}

// TestThreeWayJoinEquivalence pins the widened join scan against the
// oracle's nested loop across fact encodings.
func TestThreeWayJoinEquivalence(t *testing.T) {
	plain := stratSortedTable(t, false)
	rle := stratSortedTable(t, true)

	dimSchema := types.NewSchema(
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "bucket", Kind: types.KindString},
	)
	dim := storage.NewTable("strata", dimSchema)
	db := storage.NewBuilder(dim, 16, 1, storage.InMemory)
	for s := 0; s < 30; s += 2 { // odd strata deliberately unmatched
		db.AppendRow(types.Row{
			types.Str(fmt.Sprintf("stratum-%02d", s)),
			types.Str([]string{"low", "mid", "high"}[s/10]),
		})
	}
	db.Finish()

	combined, err := JoinedSchema(plain.Schema, []*storage.Table{dim})
	if err != nil {
		t.Fatal(err)
	}
	joins := []JoinSpec{joinSpec(t, dim, 0, 0)}
	queries := []string{
		// A fact-side conjunct and a dimension-side one.
		`SELECT COUNT(*), SUM(v) FROM strat WHERE v < 40 AND bucket <> 'mid' GROUP BY bucket`,
		`SELECT AVG(v) FROM strat WHERE bucket = 'high' GROUP BY strat`,            // dimension-only pred
		`SELECT COUNT(*) FROM strat WHERE tier >= 5 AND tier < 20 GROUP BY bucket`, // fact-only pred
		`SELECT SUM(v) FROM strat GROUP BY bucket`,                                 // no pred at all
	}
	for _, src := range queries {
		p := compile(t, src, combined)
		for name, leg := range map[string]*storage.Table{"plain": plain, "rle": rle} {
			checkOracle(t, name+" "+src, p, FromTable(leg), joins)
		}
	}
}

// TestEvalPredMatchesRowEvalRLE runs the kernel-vs-interpreter cross-check
// over a table with genuine RLE columns (NULL runs, mixed-kind runs).
func TestEvalPredMatchesRowEvalRLE(t *testing.T) {
	tab := stratSortedTable(t, true)
	var preds []types.Predicate
	for col := 0; col < tab.Schema.Len(); col++ {
		name := tab.Schema.Columns[col].Name
		for _, val := range []types.Value{
			types.Int(70), types.Float(7), types.Str("stratum-07"),
			types.Str("grade-B"), types.Bool(true), types.Null(),
		} {
			for _, op := range []types.CmpOp{types.CmpLt, types.CmpLe, types.CmpEq, types.CmpGe, types.CmpGt, types.CmpNe} {
				preds = append(preds, &types.CmpPred{Col: name, ColIdx: col, Op: op, Val: val})
			}
		}
	}
	checkKernels(t, tab, preds)
}

// TestCmpIntsAsFloatNormalization checks the int-threshold rewrite against
// the per-element float-conversion reference on every tricky constant:
// fractional, integral, NaN, ±Inf, and the 2^53/2^63 rounding bands — over
// a wide column, and over narrow ones (a minimum plus 16-bit offsets) whose
// windows sit at the ends of int64 and astride ±2^53.
func TestCmpIntsAsFloatNormalization(t *testing.T) {
	wide := []int64{
		math.MinInt64, math.MinInt64 + 1, -(1 << 62), -(1 << 53) - 1, -(1 << 53), -(1 << 53) + 1,
		-4, -3, -2, -1, 0, 1, 2, 3, 4, 255,
		(1 << 53) - 1, 1 << 53, (1 << 53) + 1, (1 << 53) + 2, 1 << 62, math.MaxInt64 - 1, math.MaxInt64,
	}
	consts := []float64{
		2.5, -2.5, 3, -3, 0, 0.5, -0.5, math.NaN(), math.Inf(1), math.Inf(-1),
		float64(1<<53) - 1, float64(1 << 53), float64(1<<53) + 2, -float64(1 << 53),
		float64(1 << 62), float64(math.MaxInt64), -float64(1 << 63), 1e19, -1e19, 1e300,
	}
	cols := []intCol{{xs: wide}}
	offs := []uint16{0, 1, 2, 3, 4, 5, 6, 7, 255, 256, 32767, 32768, 65533, 65534, 65535}
	for _, base := range []int64{math.MinInt64, -(1 << 53) - 3, -5, (1 << 53) - 3, 1 << 62, math.MaxInt64 - 65535} {
		cols = append(cols, intCol{base: base, offs: offs})
	}
	for _, xs := range cols {
		checkCmpIntsAsFloat(t, xs, consts)
	}
}

func checkCmpIntsAsFloat(t *testing.T, xs intCol, consts []float64) {
	dst := make([]uint64, (xs.len()+63)/64)
	for _, c := range consts {
		for _, op := range []types.CmpOp{types.CmpLt, types.CmpLe, types.CmpEq, types.CmpGe, types.CmpGt, types.CmpNe} {
			lt, eq, gt := opFlags(op)
			cmpIntsAsFloat(xs, c, dst, lt, eq, gt)
			for i := 0; i < xs.len(); i++ {
				v := xs.at(i)
				f := float64(v)
				want := eq
				if f < c {
					want = lt
				} else if f > c {
					want = gt
				}
				got := dst[i>>6]&(1<<uint(i&63)) != 0
				if got != want {
					t.Fatalf("c=%g op=%v v=%d: got %v want %v", c, op, v, got, want)
				}
			}
		}
	}
}

// TestScanColumnarSteadyStateZeroAlloc pins the scan loop at zero
// allocations once scratch and group states are warm — the property the
// whole pooling design exists for.
func TestScanColumnarSteadyStateZeroAlloc(t *testing.T) {
	for _, rle := range []bool{false, true} {
		tab := stratSortedTable(t, rle)
		// COUNT/SUM only: quantile accumulators buffer samples and so
		// allocate by design.
		p := compile(t, `SELECT COUNT(*), SUM(v) FROM strat WHERE v < 40 GROUP BY strat`, tab.Schema)
		in := FromTable(tab)
		sc := &colScratch{}
		pt := &Partial{groups: make(map[uint64][]*groupState)}
		rt := p.rt
		scan := func() { pt.scanBlocks(p, rt, in, 0, len(in.Blocks), nil, sc) }
		scan() // warm: group states, scratch buffers, batch pools, verdict tables
		if a := testing.AllocsPerRun(20, scan); a != 0 {
			t.Errorf("rle=%v: steady-state scan allocates %.1f allocs/run, want 0", rle, a)
		}
	}
}

// TestScanColumnarJoinSteadyStateZeroAlloc pins the join scan loop at zero
// allocations per pass once the pooled combined-row buffer (sized at plan
// time, reused via colScratch) and group states are warm — the regression
// the buffer hoist exists to prevent.
func TestScanColumnarJoinSteadyStateZeroAlloc(t *testing.T) {
	tab := stratSortedTable(t, true)
	dimSchema := types.NewSchema(
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "bucket", Kind: types.KindString},
	)
	dim := storage.NewTable("strata", dimSchema)
	db := storage.NewBuilder(dim, 16, 1, storage.InMemory)
	for s := 0; s < 30; s++ {
		db.AppendRow(types.Row{
			types.Str(fmt.Sprintf("stratum-%02d", s)),
			types.Str([]string{"low", "mid", "high"}[s/10]),
		})
	}
	db.Finish()
	combined, err := JoinedSchema(tab.Schema, []*storage.Table{dim})
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, `SELECT COUNT(*), SUM(v) FROM strat WHERE v < 40 AND bucket <> 'mid' GROUP BY bucket`, combined)
	jr := newJoinRuntime(p, []JoinSpec{joinSpec(t, dim, 0, 0)})
	in := FromTable(tab)
	sc := &colScratch{}
	pt := &Partial{groups: make(map[uint64][]*groupState)}
	scan := func() { pt.scanBlocks(p, jr.rt, in, 0, len(in.Blocks), jr, sc) }
	scan() // warm: row buffer, bitmap scratch, group states
	if a := testing.AllocsPerRun(20, scan); a != 0 {
		t.Errorf("steady-state join scan allocates %.1f allocs/run, want 0", a)
	}
}

// TestTristateZoneSkipsEval asserts the all-true classification actually
// fires: zoneImpliesPred must return true for at least one block of a
// predicate its zones prove, and aggregating those blocks without the
// per-row selection pass must not move the answer off the oracle's.
func TestTristateZoneSkipsEval(t *testing.T) {
	tab := stratSortedTable(t, true)
	p := compile(t, `SELECT COUNT(*) FROM strat WHERE tier >= 2 AND tier < 20`, tab.Schema)
	rt := p.rt
	if rt.leaves == nil {
		t.Fatal("conjunctive predicate yielded no leaves")
	}
	implied := 0
	for _, blk := range tab.Blocks {
		if zoneImpliesPred(blk, rt.leaves) {
			implied++
		}
	}
	if implied == 0 {
		t.Fatal("no block classified all-true — the shortcut never fires on its target workload")
	}
	checkOracle(t, "tristate", p, FromTable(tab), nil)
}

// TestZoneImpliesPredGuards pins the soundness guards: NaN-bearing
// columns and ≥2^53 magnitudes must never be classified all-true.
func TestZoneImpliesPredGuards(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "f", Kind: types.KindFloat},
		types.Column{Name: "big", Kind: types.KindInt},
	)
	tab := storage.NewTable("guards", schema)
	b := storage.NewBuilder(tab, 64, 1, storage.InMemory)
	for i := 0; i < 64; i++ {
		f := types.Float(float64(i))
		if i == 10 {
			f = types.Float(math.NaN()) // hides inside the zone bracket
		}
		b.Append(types.Row{f, types.Int(int64(1<<53) + int64(i))}, storage.RowMeta{Rate: 1})
	}
	b.Finish()
	blk := tab.Blocks[0]

	// NaN guard: zones say f ∈ [0, 63] (Compare treats NaN as equal to
	// everything, so it never widens the bracket), which would imply
	// "f < 100" — yet the NaN row fails it (eq is not lt). Without the
	// NaNFree check the block would be batch-aggregated with one row too
	// many.
	nanLeaf := []*types.CmpPred{{Col: "f", ColIdx: 0, Op: types.CmpLt, Val: types.Float(100)}}
	if zoneImpliesPred(blk, nanLeaf) {
		t.Error("all-true claimed over a NaN-bearing column")
	}
	p := compile(t, `SELECT COUNT(*) FROM guards WHERE f < 100`, schema)
	res := RunParallel(p, FromTable(tab), 0.95, 1)
	if res.RowsMatched != 63 { // NaN row fails f < 100
		t.Errorf("RowsMatched = %d, want 63", res.RowsMatched)
	}

	// Magnitude guard: int values ≥ 2^53 round when compared as floats,
	// so interval implication must refuse them.
	bigLeaf := []*types.CmpPred{{Col: "big", ColIdx: 1, Op: types.CmpGe, Val: types.Float(9007199254740993)}}
	if zoneImpliesPred(blk, bigLeaf) {
		t.Error("all-true claimed over ≥2^53 magnitudes")
	}
}

// ---- kernel micro-benchmarks ----

func benchFloatCol(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
	}
	return xs
}

// BenchmarkCmpFloats measures the bitmap float kernel, alone and with the
// index-extraction pass the scan runs after it, at mid selectivity.
func BenchmarkCmpFloats(b *testing.B) {
	n := 1 << 16
	xs := benchFloatCol(n)
	dst := make([]uint64, (n+63)/64)
	idxs := make([]int32, n)
	b.Run("bitmap", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			cmpFloats(xs, 0, dst, true, false, false)
		}
	})
	b.Run("bitmap+extract", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			cmpFloats(xs, 0, dst, true, false, false)
			k := 0
			for _, w := range dst {
				for w != 0 {
					idxs[k] = int32(0) // representative store
					k++
					w &= w - 1
				}
			}
		}
	})
}

// BenchmarkCmpRLE compares predicate evaluation over an RLE stratification
// column (one verdict per run) against the dictionary kernel on the same
// rows in a run-free order.
func BenchmarkCmpRLE(b *testing.B) {
	rle := stratSortedTable(b, true)
	plain := stratSortedTable(b, false)
	pred := &types.CmpPred{Col: "strat", ColIdx: 0, Op: types.CmpLe, Val: types.Str("stratum-14")}
	for _, leg := range []struct {
		name string
		tab  *storage.Table
	}{{"rle", rle}, {"dict", plain}} {
		b.Run(leg.name, func(b *testing.B) {
			sc := &colScratch{}
			b.SetBytes(leg.tab.NumRows())
			for i := 0; i < b.N; i++ {
				for _, d := range leg.tab.Chunks() {
					evalPred(pred, d, 0, d.N, sc.bitmap(d.N), sc)
				}
			}
		})
	}
}

// BenchmarkJoinLateMat measures the widened join scan on a plan with one
// fact-side and one dimension-side conjunct.
func BenchmarkJoinLateMat(b *testing.B) {
	tab := randomWeightedTable(b, 17, 120000, 2048)
	dimSchema := types.NewSchema(
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "region", Kind: types.KindString},
	)
	dim := storage.NewTable("cities", dimSchema)
	db := storage.NewBuilder(dim, 16, 1, storage.InMemory)
	for _, r := range [][2]string{{"NY", "east"}, {"SF", "west"}, {"Austin", "south"}} {
		db.AppendRow(types.Row{types.Str(r[0]), types.Str(r[1])})
	}
	db.Finish()
	combined, err := JoinedSchema(tab.Schema, []*storage.Table{dim})
	if err != nil {
		b.Fatal(err)
	}
	joins := []JoinSpec{joinSpec(b, dim, 0, 0)}
	p := compile(b, `SELECT COUNT(*), SUM(sessiontime) FROM sessions WHERE code < 500 AND region <> 'south' GROUP BY region`, combined)
	in := FromTable(tab)
	b.ReportAllocs()
	b.SetBytes(int64(tab.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewChain(p, joins).Extend(context.Background(), in, 0.95, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}
