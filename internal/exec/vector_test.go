package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"blinkdb/internal/stats"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

func newAccForTest(name string) *stats.Acc {
	switch name {
	case "count":
		return stats.NewAcc(stats.AggCount, 0)
	case "sum":
		return stats.NewAcc(stats.AggSum, 0)
	case "avg":
		return stats.NewAcc(stats.AggAvg, 0)
	default:
		return stats.NewAcc(stats.AggQuantile, 0.5)
	}
}

// TestColumnarEquivalence is the acceptance criterion of the vectorized
// scan: for every seed, block size, query shape, input kind and worker
// count it returns the oracle's Result, bit for bit.
func TestColumnarEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, rowsPerBlock := range []int{64, 509} {
			tab := randomWeightedTable(t, seed, 6000, rowsPerBlock)
			for _, src := range equivalenceQueries {
				p := compile(t, src, tab.Schema)
				label := fmt.Sprintf("seed=%d rpb=%d %s", seed, rowsPerBlock, src)
				checkOracle(t, label, p, FromTable(tab), nil)
				checkOracle(t, label+" weighted", p, FromBlocks(tab.Schema, tab.Blocks, 400), nil)
			}
		}
	}
}

// mixedKindTable builds a table that defeats every typed fast path:
// NULLs in the GROUP BY string column (dict null fallback), a column
// mixing Int and Float values (EncValue fallback), bool and all-null
// columns.
func mixedKindTable(t testing.TB) *storage.Table {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "mixed", Kind: types.KindFloat},
		types.Column{Name: "flag", Kind: types.KindBool},
		types.Column{Name: "dead", Kind: types.KindFloat},
		types.Column{Name: "v", Kind: types.KindFloat},
	)
	tab := storage.NewTable("mixed", schema)
	b := storage.NewBuilder(tab, 32, 3, storage.InMemory)
	rng := rand.New(rand.NewSource(42))
	cities := []string{"NY", "SF", "LA"}
	freqs := []int64{0, 40, 900}
	for i := 0; i < 1200; i++ {
		city := types.Str(cities[rng.Intn(3)])
		if rng.Intn(9) == 0 {
			city = types.Null()
		}
		var mixed types.Value
		switch rng.Intn(3) {
		case 0:
			mixed = types.Int(int64(rng.Intn(100)))
		case 1:
			mixed = types.Float(rng.NormFloat64() * 10)
		default:
			mixed = types.Null()
		}
		b.Append(types.Row{
			city,
			mixed,
			types.Bool(rng.Intn(2) == 0),
			types.Null(),
			types.Float(rng.ExpFloat64() * 50),
		}, storage.RowMeta{Rate: 1, StratumFreq: freqs[rng.Intn(3)]})
	}
	return b.Finish()
}

// TestColumnarEquivalenceMixedKinds drives the EncValue and null-group
// fallbacks through the same bit-identity contract.
func TestColumnarEquivalenceMixedKinds(t *testing.T) {
	tab := mixedKindTable(t)
	queries := []string{
		`SELECT COUNT(*), SUM(v) FROM mixed GROUP BY city`,
		`SELECT COUNT(*) FROM mixed WHERE mixed > 5 GROUP BY city`,
		`SELECT AVG(mixed), MEDIAN(mixed) FROM mixed WHERE city = 'NY' OR flag = 1`,
		`SELECT SUM(mixed) FROM mixed WHERE NOT (mixed <= 5)`,
		`SELECT COUNT(dead), SUM(dead) FROM mixed GROUP BY flag`,
		`SELECT AVG(v) FROM mixed WHERE city > 'K' GROUP BY city, flag`,
		`SELECT COUNT(city) FROM mixed WHERE v < 30`,
	}
	for _, src := range queries {
		p := compile(t, src, tab.Schema)
		checkOracle(t, src, p, FromTable(tab), nil)
		// Weighted-input variant exercises per-row rate staging.
		checkOracle(t, "weighted "+src, p, FromBlocks(tab.Schema, tab.Blocks, 100), nil)
	}
}

// TestEvalPredMatchesRowEval cross-checks the bitmap kernels against the
// interpreted predicate row by row, including hand-built predicates with
// cross-kind and NULL constants that the parser never emits.
func TestEvalPredMatchesRowEval(t *testing.T) {
	tab := mixedKindTable(t)
	var preds []types.Predicate
	for _, src := range []string{
		`SELECT COUNT(*) FROM mixed WHERE city = 'NY'`,
		`SELECT COUNT(*) FROM mixed WHERE city <> 'SF' AND v >= 20`,
		`SELECT COUNT(*) FROM mixed WHERE mixed > 5 OR v < 10`,
		`SELECT COUNT(*) FROM mixed WHERE NOT (city = 'LA' OR mixed < 50)`,
		`SELECT COUNT(*) FROM mixed WHERE city < 'SF' AND flag = 1`,
	} {
		preds = append(preds, compile(t, src, tab.Schema).Pred)
	}
	// Cross-kind and NULL-constant leaves on every encoding.
	for col := 0; col < tab.Schema.Len(); col++ {
		name := tab.Schema.Columns[col].Name
		for _, val := range []types.Value{
			types.Int(3), types.Float(2.5), types.Str("NY"), types.Bool(true), types.Null(),
		} {
			for _, op := range []types.CmpOp{types.CmpLt, types.CmpEq, types.CmpGe, types.CmpNe} {
				preds = append(preds, &types.CmpPred{Col: name, ColIdx: col, Op: op, Val: val})
			}
		}
	}
	checkKernels(t, tab, preds)
}

// checkKernels cross-checks evalPred against the interpreted predicate,
// row by row, over windows of every chunk of tab: the whole chunk from
// each third 64-row boundary on, and a 100-row window there (so windows
// end mid-word with the chunk's later NULLs behind them).
func checkKernels(t *testing.T, tab *storage.Table, preds []types.Predicate) {
	t.Helper()
	sc := &colScratch{}
	for pi, pred := range preds {
		for ci, d := range tab.Chunks() {
			for base := 0; base < d.N; base += 3 * 64 {
				for _, n := range []int{d.N - base, min(d.N-base, 100)} {
					dst := sc.bitmap(n)
					evalPred(pred, d, base, n, dst, sc)
					for i := 0; i < n; i++ {
						got := dst[i>>6]&(1<<uint(i&63)) != 0
						if row := d.Row(base + i); got != pred.Eval(row) {
							t.Fatalf("pred %d (%s) chunk %d window [%d,+%d) row %d: bitmap=%v eval=%v (row %v)",
								pi, pred, ci, base, n, base+i, got, !got, row)
						}
					}
				}
			}
		}
	}
}

// TestColumnarJoinEquivalence pins the join scan against the oracle's
// nested loop for every worker count.
func TestColumnarJoinEquivalence(t *testing.T) {
	tab := randomWeightedTable(t, 11, 3000, 101)
	dimSchema := types.NewSchema(
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "region", Kind: types.KindString},
	)
	dim := storage.NewTable("cities", dimSchema)
	db := storage.NewBuilder(dim, 16, 1, storage.InMemory)
	for _, r := range [][2]string{
		{"NY", "east"}, {"SF", "west"}, {"LA", "west"}, {"Austin", "south"},
	} {
		db.AppendRow(types.Row{types.Str(r[0]), types.Str(r[1])})
	}
	db.Finish()

	combined, _, err := JoinedSchema(tab.Schema, []*storage.Table{dim})
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, `SELECT COUNT(*), AVG(sessiontime) FROM sessions WHERE code < 700 GROUP BY region`, combined)
	checkOracle(t, "join", p, FromTable(tab), []JoinSpec{{Dim: dim, LeftCol: 0, RightCol: 0}})
}

// TestAddBatchMatchesAdd pins the stats contract the batched kernels rely
// on: AddBatch must leave the accumulator bit-identical to per-row Add.
func TestAddBatchMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 257
	xs := make([]float64, n)
	rates := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
		rates[i] = 1 / float64(1+rng.Intn(5))
	}
	for _, kindName := range []string{"count", "sum", "avg", "quantile"} {
		for _, mode := range []string{"varying", "uniform", "count-uniform", "count-varying"} {
			a := newAccForTest(kindName)
			b := newAccForTest(kindName)
			switch mode {
			case "varying":
				for i := range xs {
					a.Add(xs[i], rates[i])
				}
				b.AddBatch(xs, rates, n, 0)
			case "uniform":
				for i := range xs {
					a.Add(xs[i], 0.25)
				}
				b.AddBatch(xs, nil, n, 0.25)
			case "count-uniform":
				for range xs {
					a.Add(1, 0.5)
				}
				b.AddBatch(nil, nil, n, 0.5)
			case "count-varying":
				for i := range xs {
					a.Add(1, rates[i])
				}
				b.AddBatch(nil, rates, n, 0)
			}
			ea, eb := a.Estimate(0.95), b.Estimate(0.95)
			if !reflect.DeepEqual(ea, eb) {
				t.Fatalf("%s/%s: AddBatch diverged from Add: %+v vs %+v", kindName, mode, ea, eb)
			}
			if math.IsNaN(ea.Point) {
				t.Fatalf("%s/%s: NaN point", kindName, mode)
			}
		}
	}
}
