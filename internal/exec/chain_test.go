package exec

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"blinkdb/internal/sample"
	"blinkdb/internal/stats"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// chainTable is an 80k-row table whose city column is skewed across eight
// values (from a few hundred rows to tens of thousands), so a family
// stratified on it caps most strata at its small resolutions and few at
// its large ones, whose deltas span several scan ranges.
func chainTable(t testing.TB) *storage.Table {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "os", Kind: types.KindString},
		types.Column{Name: "code", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindFloat},
		types.Column{Name: "w", Kind: types.KindFloat}, // with NULLs
	)
	tab := storage.NewTable("t", schema)
	b := storage.NewBuilder(tab, 128, 4, storage.InMemory)
	rng := rand.New(rand.NewSource(4))
	oses := []string{"Win7", "OSX", "Linux", "iOS", "Android"}
	for i := 0; i < 80000; i++ {
		w := types.Float(rng.NormFloat64() * 10)
		if rng.Intn(25) == 0 {
			w = types.Null()
		}
		b.AppendRow(types.Row{
			types.Str(fmt.Sprintf("c%d", int(8*rng.Float64()*rng.Float64()))),
			types.Str(oses[rng.Intn(len(oses))]),
			types.Int(int64(rng.Intn(1000))),
			types.Float(rng.ExpFloat64() * 50),
			w,
		})
	}
	return b.Finish()
}

// chainFamilies builds the table's families: stratified on city, and
// uniform, four resolutions each.
func chainFamilies(t testing.TB, tab *storage.Table) []*sample.Family {
	t.Helper()
	cfg := sample.BuildConfig{RowsPerBlock: 256, Nodes: 4, Seed: 9}
	strat, err := sample.Build(tab, types.NewColumnSet("city"), []int64{60, 300, 1500, 15000}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := sample.BuildUniform(tab, []int64{800, 3000, 9000, 48000}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []*sample.Family{strat, uni}
}

// chainQueries reach every fold: a global masked fold, an RLE GROUP BY (the
// stratification column), a per-code masked GROUP BY, a sparse one with
// NULLs and a quantile, a pruned filter, no matches, and a join.
var chainQueries = []string{
	`SELECT COUNT(*), SUM(v), AVG(v) FROM t WHERE code >= 100`,
	`SELECT AVG(v) FROM t WHERE code < 700 GROUP BY city`,
	`SELECT COUNT(*), AVG(v) FROM t WHERE code >= 100 GROUP BY os`,
	`SELECT SUM(w), MEDIAN(v) FROM t WHERE code < 50 GROUP BY os`,
	`SELECT AVG(v), COUNT(*) FROM t WHERE city = 'c3' GROUP BY os`,
	`SELECT COUNT(*) FROM t WHERE os = 'nope'`,
	`SELECT COUNT(*), AVG(v) FROM t JOIN regions ON city = name GROUP BY region`,
}

// chainRegions is the join queries' dimension: city → region, c7 missing.
func chainRegions(t testing.TB) *storage.Table {
	t.Helper()
	dim := storage.NewTable("regions", types.NewSchema(
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "region", Kind: types.KindString},
	))
	db := storage.NewBuilder(dim, 4, 1, storage.InMemory)
	for i := 0; i < 7; i++ {
		db.AppendRow(types.Row{types.Str(fmt.Sprintf("c%d", i)), types.Str([]string{"east", "west"}[i%2])})
	}
	return db.Finish()
}

// TestChainMatchesDirect is the §4.4 contract: a chain extended one delta at
// a time answers, at every level, exactly what a direct scan of that level's
// view answers — DeepEqual, every bit of every estimate and counter — for 1,
// 3 and 8 workers, plain and join, pruned and unpruned inputs, stratified
// and uniform families, on both kernel sets; and so does a chain that takes
// its deltas several at a time.
func TestChainMatchesDirect(t *testing.T) {
	tab := chainTable(t)
	fams := chainFamilies(t, tab)
	dims := map[string]*storage.Table{"regions": chainRegions(t)}
	ctx := context.Background()
	forKernelSets(t, func(t *testing.T) {
		for _, fam := range fams {
			top := fam.Resolutions() - 1
			for _, src := range chainQueries {
				p, joins := compileJoinQuery(t, src, tab, dims)
				for _, pruned := range []bool{false, true} {
					view := func(v sample.View, after int) Input {
						in := FromDelta(v, after)
						if pruned {
							in = in.Pruned(p)
						}
						return in
					}
					for _, w := range []int{1, 3, 8} {
						label := fmt.Sprintf("%s pruned=%v workers=%d %s", fam, pruned, w, src)
						want := make([]*Result, fam.Resolutions())
						for l := range want {
							want[l] = runJoin(t, p, view(fam.View(l), -1), joins, w)
						}
						if l := top; len(view(fam.View(l), l-1).ranges()) < 2 && !pruned {
							t.Fatalf("%s: the top delta is one scan range; the test needs several", label)
						}
						c := NewChain(p, joins)
						for l := 0; l <= top; l++ {
							got, err := c.Extend(ctx, view(fam.View(l), l-1), 0.95, w, nil)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(want[l], got) {
								t.Fatalf("%s: chain at level %d diverged from the view's scan\nwant %+v\ngot  %+v", label, l, want[l], got)
							}
						}
						if c.Level() != top {
							t.Fatalf("%s: chain at level %d after extending to %d", label, c.Level(), top)
						}
						c = NewChain(p, joins)
						var got *Result
						for _, step := range [][2]int{{-1, 1}, {1, top}} {
							var err error
							if got, err = c.Extend(ctx, view(fam.View(step[1]), step[0]), 0.95, w, nil); err != nil {
								t.Fatal(err)
							}
						}
						if !reflect.DeepEqual(want[top], got) {
							t.Fatalf("%s: a chain of two steps diverged from the view's scan\nwant %+v\ngot  %+v", label, want[top], got)
						}
					}
				}
			}
		}
	})
}

// TestChainFinalizeConcurrently: finalizing reads a chain's state and
// changes nothing — not a quantile's values (once sorted in place), not the
// merged groups (once given an empty global group) — so one state
// finalized at two caps from several goroutines at once (run under -race
// in CI) answers each cap exactly as it does alone, and the chain's own
// answer is unchanged after.
func TestChainFinalizeConcurrently(t *testing.T) {
	tab := chainTable(t)
	fam := chainFamilies(t, tab)[0]
	for _, src := range []string{
		`SELECT COUNT(*), AVG(v), MEDIAN(v) FROM t WHERE code < 600 GROUP BY os`,
		`SELECT SUM(v), QUANTILE(v, 0.9) FROM t WHERE os = 'nope'`,
	} {
		p := compile(t, src, tab.Schema)
		c := NewChain(p, nil)
		own, err := c.Extend(context.Background(), FromView(fam.View(1)), 0.95, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		caps := []stats.Weights{{Cap: fam.Caps[1]}, {Cap: fam.Caps[3]}}
		want := []*Result{c.m.result(0.95, caps[0]), c.m.result(0.95, caps[1])}
		if reflect.DeepEqual(want[0], want[1]) && len(want[0].Groups[0].Estimates) > 0 && want[0].RowsMatched > 0 {
			t.Fatalf("%s: the two caps answer alike; the test needs capped strata", src)
		}
		got := make([]*Result, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = c.m.result(0.95, caps[g%2])
			}(g)
		}
		wg.Wait()
		for g, res := range got {
			if !reflect.DeepEqual(want[g%2], res) {
				t.Fatalf("%s: concurrent finalize at %+v diverged\nwant %+v\ngot  %+v", src, caps[g%2], want[g%2], res)
			}
		}
		if again := c.m.result(0.95, c.m.w); !reflect.DeepEqual(own, again) {
			t.Fatalf("%s: finalizing changed the chain's answer\nbefore %+v\nafter  %+v", src, own, again)
		}
	}
}
