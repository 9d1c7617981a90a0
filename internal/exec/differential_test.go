package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"blinkdb/internal/colstore"
	"blinkdb/internal/stats"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// diffSchema is the table both case generators fill.
func diffSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "strat", Kind: types.KindString},
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "tier", Kind: types.KindInt},
		types.Column{Name: "code", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindFloat},
		types.Column{Name: "mix", Kind: types.KindFloat},
		types.Column{Name: "nanny", Kind: types.KindFloat}, // predicates only: NaN != NaN under DeepEqual
		types.Column{Name: "tag", Kind: types.KindString},
	)
}

var diffCities = []string{"NY", "NY", "SF", "LA", "Austin", "Boise"}

// diffRow draws row n of a differential table: strat runs 700 rows, tier
// is the caller's (the column the zone states hang on), tag cycles through
// tags strings — so a chunk of at least tags rows has tags of them, and its
// dictionary takes 2-byte codes when that is over 256 — and when dirty one
// row in ten carries NULLs, a NaN beside a mixed-kind value, or another
// NULL pair. With rle false every other row's strat and tier are one
// higher, so that neither column has a run for the encoder to find.
func diffRow(rng *rand.Rand, n int, tier int64, tags int, dirty, rle bool) types.Row {
	strat := n / 700
	if !rle {
		strat, tier = strat+n%2, tier+int64(n%2)
	}
	row := types.Row{
		types.Str(fmt.Sprintf("s%03d", strat)),
		types.Str(diffCities[rng.Intn(len(diffCities))]),
		types.Int(tier),
		types.Int(int64(rng.Intn(1000))),
		types.Float(rng.ExpFloat64() * 100),
		types.Float(float64(rng.Intn(20))),
		types.Float(rng.NormFloat64()),
		types.Str(fmt.Sprintf("t%03d", n%tags)),
	}
	if dirty {
		switch rng.Intn(30) {
		case 0:
			row[1], row[4], row[7] = types.Null(), types.Null(), types.Null()
		case 1:
			row[5], row[6] = types.Int(int64(rng.Intn(20))), types.Float(math.NaN())
		case 2:
			row[3], row[5] = types.Null(), types.Null()
		}
	}
	return row
}

// genCase derives one differential case from a seed: a table over one of
// partition_test.go's irregular block shapes, every block a chunk of its
// own (sorted RLE runs, or in half the cases run-free rows that take the
// plain encodings, dictionary strings — with 2-byte codes in a block
// of over 256 rows half the time — NULLs, a NaN-bearing column, a mixed
// int/float column, a block-monotonic column for the three zone states,
// varying stratum frequencies), then genQuery's plan. Everything
// is a function of the seed, so a failing seed is a complete reproduction.
func genCase(seed int64) (p *Plan, in Input, joins []JoinSpec, label string) {
	rng := rand.New(rand.NewSource(seed))
	schema := diffSchema()
	names := make([]string, 0, len(irregularShapes))
	for name := range irregularShapes {
		names = append(names, name)
	}
	sort.Strings(names)
	shape := names[rng.Intn(len(names))]
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
		}
		tags := []int{7, 400}[rng.Intn(2)]
		for i := 0; i < size; i++ {
			row := diffRow(rng, n, int64(bi), tags, true, rle)
			b.Append(row, storage.RowMeta{Rate: 1, StratumFreq: int64(50 * rng.Intn(5))})
			n++
		}
		tab.AddBlock(b.Finish().Blocks[0])
	}
	mustBePlain(tab, rle)
	in = FromTable(tab)
	if rng.Intn(2) == 0 {
		in = viewOf(schema, tab.Blocks, randomCaps(rng)...)
	}
	p, joins = genQuery(rng, schema)
	return p, in, joins, fmt.Sprintf("seed=%d shape=%q rle=%v joins=%d pred=%s", seed, shape, rle, len(joins), p.Pred)
}

// genChunkCase is genCase over the shapes physical chunks introduce: three
// to five chunks of many blocks each (3 to 2,500 rows a block), at least
// one long enough that a scan-range boundary falls inside it; a tier
// column that saw-tooths with the block number and wobbles in every third
// block, so a predicate on it prunes blocks in the middle of a chunk and
// alternates all-true with mixed verdicts; stratum frequencies that change
// every row, mid-block or every few thousand rows; NULLs, NaNs and
// mixed-kind values confined to one block per chunk (the whole chunk's
// columns still pay for them: null bitmaps, the verbatim encoding, no
// NaN-free guarantee); a tag column with 257 to 556 strings in the long
// chunk and at most 256 in every other, so one scan meets both widths of
// dictionary code; and, one case in three, a view input whose block list
// skips blocks the way a pruned one does.
func genChunkCase(seed int64) (p *Plan, in Input, joins []JoinSpec, label string) {
	rng := rand.New(rand.NewSource(seed))
	schema := diffSchema()
	rle := rng.Intn(2) == 0
	tab := storage.NewTable("t", schema)
	chunks := 3 + rng.Intn(3)
	long := rng.Intn(chunks) // this chunk holds at least two scan ranges
	n, bi := 0, 0
	shape := ""
	for c := 0; c < chunks; c++ {
		perBlock := []int{3, 64, 100, 700, 2500}[rng.Intn(5)]
		rows := 200 + rng.Intn(3000)
		if c == long {
			rows = 2*minPartialRows + 500 + rng.Intn(2000)
		}
		period := []int{1, 37, 400, 5000}[rng.Intn(4)]    // rows per stratum frequency
		dirty := rng.Intn((rows+perBlock-1)/perBlock + 1) // this block alone is dirty (one past the end: none)
		tags := 1 + rng.Intn(colstore.MaxDict8)
		if c == long {
			tags = colstore.MaxDict8 + 1 + rng.Intn(300)
		} else if !rle {
			tags = max(tags, 2) // one tag is one run
		}
		shape += fmt.Sprintf(" %dx%d/f%d/t%d", rows, perBlock, period, tags)
		one := storage.NewTable("t", schema)
		b := storage.NewBuilder(one, perBlock, 5, storage.InMemory)
		if rle {
			b.HintSortedColumns(0)
		}
		for i := 0; i < rows; i++ {
			blk := bi + i/perBlock
			tier := int64(blk % 50)
			if blk%3 == 2 {
				tier += int64(rng.Intn(5) - 2)
			}
			row := diffRow(rng, n, tier, tags, i/perBlock == dirty, rle)
			b.Append(row, storage.RowMeta{Rate: 1, StratumFreq: int64(50 * (n / period % 5))})
			n++
		}
		for _, blk := range b.Finish().Blocks {
			tab.AddBlock(blk)
		}
		bi += (rows + perBlock - 1) / perBlock
	}
	mustBePlain(tab, rle)
	switch rng.Intn(3) {
	case 0:
		in = FromTable(tab)
	case 1:
		in = viewOf(schema, tab.Blocks, randomCaps(rng)...)
	default:
		var kept []*storage.Block
		for _, blk := range tab.Blocks {
			if rng.Intn(8) != 0 {
				kept = append(kept, blk)
			}
		}
		shape += " skips"
		in = viewOf(schema, kept, randomCaps(rng)...)
	}
	p, joins = genQuery(rng, schema)
	return p, in, joins, fmt.Sprintf("seed=%d chunks=%s rle=%v joins=%d pred=%s", seed, shape, rle, len(joins), p.Pred)
}

// mustBePlain panics when a case built without RLE hints holds an RLE
// column: its plain leg would test the RLE kernels instead.
func mustBePlain(tab *storage.Table, rle bool) {
	if !rle && hasRLEColumn(tab) {
		panic("a plain differential case holds an RLE column")
	}
}

// randomCaps draws a view's resolutions: one to three ascending caps, the
// first among the stratum frequencies the generators write (0 to 200).
func randomCaps(rng *rand.Rand) []int64 {
	caps := []int64{int64(60 + rng.Intn(120))}
	for n := rng.Intn(3); n > 0; n-- {
		caps = append(caps, caps[len(caps)-1]+int64(1+rng.Intn(100)))
	}
	return caps
}

// genQuery draws the plan for a differential case: a random AND/OR/NOT
// predicate with cross-kind constants, 0–2 GROUP BY columns, 1–3
// aggregates, sometimes a LIMIT, and — one case in three — a dimension
// join on city or on tag.
func genQuery(rng *rand.Rand, schema *types.Schema) (p *Plan, joins []JoinSpec) {
	p = &Plan{Schema: schema}
	if rng.Intn(3) == 0 {
		dim := storage.NewTable("regions", types.NewSchema(
			types.Column{Name: "name", Kind: types.KindString},
			types.Column{Name: "region", Kind: types.KindString},
		))
		db := storage.NewBuilder(dim, 4, 1, storage.InMemory)
		key, names := 1, [][2]string{{"NY", "east"}, {"SF", "west"}, {"LA", "west"}}
		if rng.Intn(2) == 0 {
			key, names = 7, [][2]string{{"t007", "east"}, {"t300", "west"}, {"t001", "west"}}
		}
		for _, c := range names {
			db.AppendRow(types.Row{types.Str(c[0]), types.Str(c[1])})
		}
		db.AppendRow(types.Row{types.Null(), types.Str("nowhere")}) // NULL keys join each other
		db.Finish()
		combined, err := JoinedSchema(schema, []*storage.Table{dim})
		if err != nil {
			panic(err)
		}
		spec, err := newJoinSpec(dim, key, 0)
		if err != nil {
			panic(err)
		}
		p.Schema, joins = combined, []JoinSpec{spec}
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
		"tag":    {types.Str("t007"), types.Str("t300"), types.Str("t"), types.Null()},
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
	groupable := []int{0, 1, 2, 7} // strat, city, tier, tag
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
	return p, joins
}

// TestOracleDifferential sweeps seeded cases from both generators through
// checkOracle: the production scan — kernels, encodings, zone states,
// spans, row-budgeted partials, joins over widened chunks — against the
// naive evaluator, on each selection kernel set.
func TestOracleDifferential(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	forKernelSets(t, func(t *testing.T) {
		for seed := int64(0); seed < int64(seeds); seed++ {
			for _, gen := range []func(int64) (*Plan, Input, []JoinSpec, string){genCase, genChunkCase} {
				p, in, joins, label := gen(seed)
				checkOracle(t, label, p, in, joins)
			}
		}
	})
}

// FuzzOracle is the same check with the seed under the fuzzer's control
// (corpus in testdata/fuzz/FuzzOracle): the first step of differential
// fuzzing, over the executor alone.
func FuzzOracle(f *testing.F) {
	f.Add(int64(1))
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, gen := range []func(int64) (*Plan, Input, []JoinSpec, string){genCase, genChunkCase} {
			p, in, joins, label := gen(seed)
			checkOracle(t, label, p, in, joins)
		}
	})
}
