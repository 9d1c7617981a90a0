package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"blinkdb/internal/stats"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// genCase derives one differential case from a seed: a table over one of
// partition_test.go's irregular block shapes (sorted RLE runs, dictionary
// strings, NULLs, a NaN-bearing column, a mixed int/float column, a
// block-monotonic column for the three zone states, varying stratum
// frequencies), a random AND/OR/NOT predicate with cross-kind constants,
// 0–2 GROUP BY columns, 1–3 aggregates, rate-1 or capped per-row weights,
// and — one case in three — a dimension join. Everything is a function of
// the seed, so a failing seed is a complete reproduction.
func genCase(seed int64) (p *Plan, in Input, joins []JoinSpec, label string) {
	rng := rand.New(rand.NewSource(seed))
	schema := types.NewSchema(
		types.Column{Name: "strat", Kind: types.KindString},
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "tier", Kind: types.KindInt},
		types.Column{Name: "code", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindFloat},
		types.Column{Name: "mix", Kind: types.KindFloat},
		types.Column{Name: "nanny", Kind: types.KindFloat}, // predicates only: NaN != NaN under DeepEqual
	)
	names := make([]string, 0, len(irregularShapes))
	for name := range irregularShapes {
		names = append(names, name)
	}
	sort.Strings(names)
	shape := names[rng.Intn(len(names))]
	cities := []string{"NY", "NY", "SF", "LA", "Austin", "Boise"}
	rle := rng.Intn(2) == 0
	tab := storage.NewTable("t", schema)
	n := 0
	for bi, size := range irregularShapes[shape] {
		if size == 0 {
			continue // storage.Builder never emits an empty block
		}
		one := storage.NewTable("t", schema)
		b := storage.NewBuilder(one, size+1, 5, storage.InMemory)
		if rle {
			b.HintSortedColumns(0)
		} else {
			b.DisableRLE()
		}
		for i := 0; i < size; i++ {
			row := types.Row{
				types.Str(fmt.Sprintf("s%03d", n/700)),
				types.Str(cities[rng.Intn(len(cities))]),
				types.Int(int64(bi)),
				types.Int(int64(rng.Intn(1000))),
				types.Float(rng.ExpFloat64() * 100),
				types.Float(float64(rng.Intn(20))),
				types.Float(rng.NormFloat64()),
			}
			switch rng.Intn(30) {
			case 0:
				row[1], row[4] = types.Null(), types.Null()
			case 1:
				row[5], row[6] = types.Int(int64(rng.Intn(20))), types.Float(math.NaN())
			case 2:
				row[3], row[5] = types.Null(), types.Null()
			}
			b.Append(row, storage.RowMeta{Rate: 1, StratumFreq: int64(50 * rng.Intn(5))})
			n++
		}
		tab.AddBlock(b.Finish().Blocks[0])
	}
	in = FromTable(tab)
	if rng.Intn(2) == 0 {
		in = FromBlocks(schema, tab.Blocks, int64(60+rng.Intn(120)))
	}

	p = &Plan{Schema: schema}
	if rng.Intn(3) == 0 {
		dim := storage.NewTable("regions", types.NewSchema(
			types.Column{Name: "name", Kind: types.KindString},
			types.Column{Name: "region", Kind: types.KindString},
		))
		db := storage.NewBuilder(dim, 4, 1, storage.InMemory)
		for _, c := range [][2]string{{"NY", "east"}, {"SF", "west"}, {"LA", "west"}, {"NY", "tri-state"}} {
			db.AppendRow(types.Row{types.Str(c[0]), types.Str(c[1])})
		}
		db.AppendRow(types.Row{types.Null(), types.Str("nowhere")}) // NULL keys join each other
		db.Finish()
		combined, _, err := JoinedSchema(schema, []*storage.Table{dim})
		if err != nil {
			panic(err)
		}
		p.Schema = combined
		joins = []JoinSpec{{Dim: dim, LeftCol: 1, RightCol: 0}}
	}

	consts := map[string][]types.Value{
		"strat":  {types.Str("s004"), types.Str("s011"), types.Int(3)},
		"city":   {types.Str("NY"), types.Str("LA"), types.Str("M"), types.Null()},
		"tier":   {types.Int(3), types.Int(20), types.Float(7.5), types.Float(40)},
		"code":   {types.Int(250), types.Float(499.5), types.Float(700), types.Float(1 << 60)},
		"v":      {types.Int(30), types.Float(80.25), types.Float(math.NaN())},
		"mix":    {types.Int(7), types.Float(7), types.Float(12.5), types.Str("x")},
		"nanny":  {types.Float(0), types.Int(1), types.Float(math.NaN())},
		"region": {types.Str("west"), types.Str("east")},
	}
	ops := []types.CmpOp{types.CmpLt, types.CmpLe, types.CmpEq, types.CmpGe, types.CmpGt, types.CmpNe}
	var pred func(depth int) types.Predicate
	pred = func(depth int) types.Predicate {
		switch k := rng.Intn(6); {
		case depth > 0 && k == 0:
			return &types.AndPred{Kids: []types.Predicate{pred(depth - 1), pred(depth - 1)}}
		case depth > 0 && k == 1:
			return &types.OrPred{Kids: []types.Predicate{pred(depth - 1), pred(depth - 1)}}
		case depth > 0 && k == 2:
			return &types.NotPred{Kid: pred(depth - 1)}
		}
		ci := rng.Intn(p.Schema.Len())
		col := p.Schema.Columns[ci].Name
		vals := consts[col]
		if vals == nil {
			vals = consts["city"] // the dimension's join key
		}
		return &types.CmpPred{Col: col, ColIdx: ci, Op: ops[rng.Intn(len(ops))], Val: vals[rng.Intn(len(vals))]}
	}
	p.Pred = types.TruePred{}
	if rng.Intn(8) != 0 {
		p.Pred = pred(3)
	}
	groupable := []int{0, 1, 2} // strat, city, tier
	if joins != nil {
		groupable = append(groupable, p.Schema.Index("region"))
	}
	for _, gi := range rng.Perm(len(groupable))[:rng.Intn(3)] {
		p.GroupBy = append(p.GroupBy, groupable[gi])
		p.GroupNames = append(p.GroupNames, p.Schema.Columns[groupable[gi]].Name)
	}
	for i, k := 0, 1+rng.Intn(3); i < k; i++ {
		a := AggPlan{Kind: []stats.AggKind{stats.AggCount, stats.AggSum, stats.AggAvg, stats.AggQuantile}[rng.Intn(4)],
			Col: 3 + rng.Intn(3), P: []float64{0.5, 0.9}[rng.Intn(2)]}
		if a.Kind == stats.AggCount && rng.Intn(2) == 0 {
			a.Col = -1
		}
		p.Aggs = append(p.Aggs, a)
	}
	if rng.Intn(6) == 0 {
		p.Limit = 1 + rng.Intn(4)
	}
	return p, in, joins, fmt.Sprintf("seed=%d shape=%q rle=%v joins=%d pred=%s", seed, shape, rle, len(joins), p.Pred)
}

// TestOracleDifferential sweeps seeded cases through checkOracle: the
// production scan — kernels, encodings, zone states, row-budgeted
// partials, late-materialized joins — against the naive evaluator.
func TestOracleDifferential(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		p, in, joins, label := genCase(seed)
		checkOracle(t, label, p, in, joins)
	}
}

// FuzzOracle is the same check with the seed under the fuzzer's control
// (corpus in testdata/fuzz/FuzzOracle): the first step of differential
// fuzzing, over the executor alone.
func FuzzOracle(f *testing.F) {
	f.Add(int64(1))
	f.Fuzz(func(t *testing.T, seed int64) {
		p, in, joins, label := genCase(seed)
		checkOracle(t, label, p, in, joins)
	})
}
