package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"blinkdb/internal/colstore"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// TestColumnarEquivalence is the acceptance criterion of the vectorized
// scan: for every seed, block size, query shape, input kind and worker
// count, and selection kernel set, it returns the oracle's Result, bit for
// bit.
func TestColumnarEquivalence(t *testing.T) {
	forKernelSets(t, func(t *testing.T) {
		for _, seed := range []int64{1, 2, 3} {
			for _, rowsPerBlock := range []int{64, 509} {
				tab := randomWeightedTable(t, seed, 6000, rowsPerBlock)
				for _, src := range equivalenceQueries {
					p := compile(t, src, tab.Schema)
					label := fmt.Sprintf("seed=%d rpb=%d %s", seed, rowsPerBlock, src)
					checkOracle(t, label, p, FromTable(tab), nil)
					checkOracle(t, label+" weighted", p, viewOf(tab.Schema, tab.Blocks, 400), nil)
				}
			}
		}
	})
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
		// Weighted-input variant exercises per-row key staging.
		checkOracle(t, "weighted "+src, p, viewOf(tab.Schema, tab.Blocks, 50, 100), nil)
	}
}

// TestEvalPredMatchesRowEval cross-checks the bitmap kernels, on each
// selection kernel set, against the interpreted predicate row by row,
// including hand-built predicates with cross-kind and NULL constants that
// the parser never emits.
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
	forKernelSets(t, func(t *testing.T) { checkKernels(t, tab, preds) })
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

// TestIntervalKernel holds the one int compare kernel — intsInRange, behind
// every order comparison and equality of an int column, and behind the
// interval leaves mergeIntervals folds conjunctions into — to the per-row
// compiled closure, on the cases where an interval could go wrong: the ends
// of int64 (x < MinInt64, x > MaxInt64, the c±1 that would overflow), empty
// and contradictory ranges, NULLs (which sort below every number: they pass
// any set of upper bounds and fail any lower bound), float and bool
// constants (normIntCmp) and windows that start mid-word — on each
// selection kernel set.
func TestIntervalKernel(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt}, // with NULLs
		types.Column{Name: "b", Kind: types.KindInt}, // without
		types.Column{Name: "f", Kind: types.KindFloat},
	)
	tab := storage.NewTable("t", schema)
	b := storage.NewBuilder(tab, 50, 1, storage.InMemory)
	rng := rand.New(rand.NewSource(3))
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -3, -2, 0, 2, 3, 4, 1 << 53, math.MaxInt64 - 1, math.MaxInt64}
	for i := 0; i < 700; i++ {
		pick := func() types.Value {
			if rng.Intn(3) == 0 {
				return types.Int(edges[rng.Intn(len(edges))])
			}
			return types.Int(int64(rng.Intn(11) - 5))
		}
		a := pick()
		if rng.Intn(7) == 0 {
			a = types.Null()
		}
		f := types.Float(float64(rng.Intn(11) - 5))
		if rng.Intn(9) == 0 {
			f = types.Float(math.NaN())
		}
		b.AppendRow(types.Row{a, pick(), f})
	}
	b.Finish()
	d := tab.Chunks()[0]
	if len(tab.Chunks()) != 1 || d.Cols[0].Enc != colstore.EncInt || d.Cols[0].Nulls == nil || d.Cols[1].Enc != colstore.EncInt || d.Cols[1].Nulls != nil {
		t.Fatal("the table is meant to be one chunk with a nullable and a NULL-free int column")
	}

	consts := []types.Value{
		types.Int(math.MinInt64), types.Int(math.MinInt64 + 1), types.Int(-2), types.Int(0), types.Int(3),
		types.Int(math.MaxInt64 - 1), types.Int(math.MaxInt64),
		types.Float(2.5), types.Float(-2.5), types.Float(3), types.Float(math.NaN()), types.Float(1e300), types.Float(-1e300),
		types.Float(1 << 53), types.Bool(true),
	}
	order := []types.CmpOp{types.CmpLt, types.CmpLe, types.CmpGt, types.CmpGe}
	leaf := func(col int, op types.CmpOp, v types.Value) *types.CmpPred {
		return &types.CmpPred{Col: schema.Columns[col].Name, ColIdx: col, Op: op, Val: v}
	}
	var preds []types.Predicate
	for col := 0; col < 3; col++ {
		for _, v1 := range consts {
			for _, op1 := range append(order, types.CmpEq, types.CmpNe) {
				preds = append(preds, leaf(col, op1, v1)) // one-sided, =, <>
				if op1 == types.CmpEq || op1 == types.CmpNe {
					continue
				}
				for _, v2 := range consts {
					for _, op2 := range order { // ranges, contradictions, two bounds on a side
						// Nested two by two, as the parser builds a AND b AND c.
						preds = append(preds, &types.AndPred{Kids: []types.Predicate{
							&types.AndPred{Kids: []types.Predicate{leaf(col, op1, v1), leaf(1-col%2, types.CmpNe, types.Int(4))}},
							leaf(col, op2, v2)}})
					}
				}
			}
		}
	}
	forKernelSets(t, func(t *testing.T) {
		folded := 0
		sc := &colScratch{}
		for _, pred := range preds {
			sel := mergeIntervals(pred)
			if and, ok := sel.(*types.AndPred); ok && len(and.Kids) == 2 {
				if iv, ok := and.Kids[0].(*intervalPred); ok && len(iv.Kids) == 2 {
					folded++
				}
			}
			want := types.CompilePredicate(pred)
			for _, s := range []span{{d: d, lo: 0, hi: d.N}, {d: d, lo: 70, hi: 70 + 130}, {d: d, lo: 129, hi: 131}, {d: d, lo: 448, hi: d.N}} {
				bm, base := sc.selectRows(sel, s)
				if got := bitmapCount(bm); got != bitmapCountRange(bm, s.lo-base, s.hi-base) {
					t.Fatalf("%s rows [%d,%d): bits set outside the span", pred, s.lo, s.hi)
				}
				for i := s.lo; i < s.hi; i++ {
					got := bm[(i-base)>>6]&(1<<uint((i-base)&63)) != 0
					if row := d.Row(i); got != want(row) {
						t.Fatalf("%s (as %T) rows [%d,%d) row %d = %v: kernel %v, closure %v", pred, sel, s.lo, s.hi, i, row, got, !got)
					}
				}
			}
		}
		// Every pair of order leaves on one column folds, but for the constant
		// no int64 threshold stands for (2^53 as a float).
		if want := 3 * 4 * 4 * (len(consts) - 1) * (len(consts) - 1); folded != want {
			t.Fatalf("%d conjunctions folded into an interval leaf, want %d", folded, want)
		}
	})
}
