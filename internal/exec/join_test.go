package exec

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"blinkdb/internal/sample"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// dimTable builds a small media dimension table: objectid → genre, title.
func dimTable(t testing.TB, n int) *storage.Table {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "objectid", Kind: types.KindInt},
		types.Column{Name: "genre", Kind: types.KindString},
		types.Column{Name: "minutes", Kind: types.KindFloat},
	)
	tab := storage.NewTable("media", schema)
	b := storage.NewBuilder(tab, 64, 1, storage.InMemory)
	genres := []string{"western", "drama", "comedy"}
	for i := 0; i < n; i++ {
		b.AppendRow(types.Row{
			types.Int(int64(i)),
			types.Str(genres[i%3]),
			types.Float(float64(60 + i%90)),
		})
	}
	return b.Finish()
}

// factTable builds a viewing-log fact table referencing media objects.
func factTable(t testing.TB, rows, objects int, seed int64) *storage.Table {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "objectid", Kind: types.KindInt},
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "watchtime", Kind: types.KindFloat},
	)
	tab := storage.NewTable("views", schema)
	b := storage.NewBuilder(tab, 128, 4, storage.InMemory)
	rng := rand.New(rand.NewSource(seed))
	cities := []string{"NY", "NY", "SF", "LA"}
	for i := 0; i < rows; i++ {
		b.AppendRow(types.Row{
			types.Int(int64(rng.Intn(objects))),
			types.Str(cities[rng.Intn(len(cities))]),
			types.Float(rng.ExpFloat64() * 30),
		})
	}
	return b.Finish()
}

func compileJoinQuery(t testing.TB, src string, fact *storage.Table,
	dims map[string]*storage.Table) (*Plan, []JoinSpec) {
	t.Helper()
	q, err := sqlparser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	combined, specs, err := CompileJoins(q, fact.Schema, func(name string) (*storage.Table, error) {
		return dims[name], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(q, combined)
	if err != nil {
		t.Fatal(err)
	}
	return plan, specs
}

// joinSpec is newJoinSpec for a dimension whose join keys the test knows
// to be distinct.
func joinSpec(t testing.TB, dim *storage.Table, left, right int) JoinSpec {
	t.Helper()
	spec, err := newJoinSpec(dim, left, right)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// runJoin is a fresh chain's read at 95% confidence under a background
// context, where it cannot fail.
func runJoin(t testing.TB, p *Plan, in Input, joins []JoinSpec, workers int) *Result {
	t.Helper()
	res, err := NewChain(p, joins).Extend(context.Background(), in, 0.95, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestJoinedSchemaCollisionsQualified(t *testing.T) {
	fact := factTable(t, 10, 5, 1)
	dim := dimTable(t, 5)
	combined, err := JoinedSchema(fact.Schema, []*storage.Table{dim})
	if err != nil {
		t.Fatal(err)
	}
	// fact has objectid; dim's objectid collides → "media.objectid".
	if combined.Index("media.objectid") < 0 {
		t.Errorf("colliding column not qualified: %v", combined)
	}
	if combined.Index("genre") < 0 {
		t.Error("non-colliding dim column should keep its name")
	}
	// The dimension's columns follow the fact's.
	if i := combined.Index("media.objectid"); i != fact.Schema.Len() {
		t.Errorf("first dimension column at %d, want %d", i, fact.Schema.Len())
	}
}

func TestJoinExactMatchesNestedLoop(t *testing.T) {
	fact := factTable(t, 5000, 30, 2)
	dim := dimTable(t, 30)
	plan, specs := compileJoinQuery(t,
		`SELECT COUNT(*), SUM(watchtime) FROM views JOIN media ON objectid = objectid WHERE genre = 'western' GROUP BY city`,
		fact, map[string]*storage.Table{"media": dim})

	got := runJoin(t, plan, FromTable(fact), specs, 1)

	// Nested-loop reference.
	genreOf := map[int64]string{}
	dim.Scan(func(r types.Row, _ storage.RowMeta) bool {
		genreOf[r[0].I] = r[1].S
		return true
	})
	wantCount := map[string]float64{}
	wantSum := map[string]float64{}
	fact.Scan(func(r types.Row, _ storage.RowMeta) bool {
		if genreOf[r[0].I] == "western" {
			wantCount[r[1].S]++
			wantSum[r[1].S] += r[2].F
		}
		return true
	})
	if len(got.Groups) != len(wantCount) {
		t.Fatalf("groups = %d, want %d", len(got.Groups), len(wantCount))
	}
	for _, g := range got.Groups {
		city := g.KeyString()
		if math.Abs(g.Estimates[0].Point-wantCount[city]) > 1e-9 {
			t.Errorf("%s count = %g, want %g", city, g.Estimates[0].Point, wantCount[city])
		}
		if math.Abs(g.Estimates[1].Point-wantSum[city]) > 1e-6 {
			t.Errorf("%s sum = %g, want %g", city, g.Estimates[1].Point, wantSum[city])
		}
		if !g.Estimates[0].Exact {
			t.Errorf("%s: base-table join should be exact", city)
		}
	}
}

func TestJoinOnSampledFactUnbiased(t *testing.T) {
	fact := factTable(t, 40000, 20, 3)
	dim := dimTable(t, 20)
	plan, specs := compileJoinQuery(t,
		`SELECT COUNT(*) FROM views JOIN media ON objectid = objectid WHERE genre = 'drama'`,
		fact, map[string]*storage.Table{"media": dim})

	exact := runJoin(t, plan, FromTable(fact), specs, 1)
	truth := exact.Groups[0].Estimates[0].Point

	// Stratified sample on the join key (§2.1 case (i)).
	fam, err := sample.Build(fact, types.NewColumnSet("objectid"), []int64{500}, sample.BuildConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	approx := runJoin(t, plan, FromView(fam.View(0)), specs, 1)
	e := approx.Groups[0].Estimates[0]
	if math.Abs(e.Point-truth) > math.Max(3*e.StdErr, truth*0.1) {
		t.Errorf("sampled join count %g vs truth %g (stderr %g)", e.Point, truth, e.StdErr)
	}
}

func TestMultiWayJoin(t *testing.T) {
	fact := factTable(t, 2000, 10, 5)
	media := dimTable(t, 10)
	// Second dimension: genre → family-friendly flag.
	schema := types.NewSchema(
		types.Column{Name: "genre", Kind: types.KindString},
		types.Column{Name: "kids", Kind: types.KindBool},
	)
	ratings := storage.NewTable("ratings", schema)
	rb := storage.NewBuilder(ratings, 8, 1, storage.InMemory)
	rb.AppendRow(types.Row{types.Str("western"), types.Bool(false)})
	rb.AppendRow(types.Row{types.Str("drama"), types.Bool(false)})
	rb.AppendRow(types.Row{types.Str("comedy"), types.Bool(true)})
	rb.Finish()

	plan, specs := compileJoinQuery(t,
		`SELECT COUNT(*) FROM views JOIN media ON objectid = objectid JOIN ratings ON genre = genre WHERE kids = TRUE`,
		fact, map[string]*storage.Table{"media": media, "ratings": ratings})
	got := runJoin(t, plan, FromTable(fact), specs, 1)

	// comedy objects are ids ≡ 2 mod 3.
	want := 0.0
	fact.Scan(func(r types.Row, _ storage.RowMeta) bool {
		if r[0].I%3 == 2 {
			want++
		}
		return true
	})
	if got.Groups[0].Estimates[0].Point != want {
		t.Errorf("2-way join count = %g, want %g", got.Groups[0].Estimates[0].Point, want)
	}
}

func TestJoinDropsUnmatchedRows(t *testing.T) {
	fact := factTable(t, 1000, 30, 6)
	dim := dimTable(t, 10) // objects 10..29 have no dimension row
	plan, specs := compileJoinQuery(t,
		`SELECT COUNT(*) FROM views JOIN media ON objectid = objectid`,
		fact, map[string]*storage.Table{"media": dim})
	got := runJoin(t, plan, FromTable(fact), specs, 1)
	want := 0.0
	fact.Scan(func(r types.Row, _ storage.RowMeta) bool {
		if r[0].I < 10 {
			want++
		}
		return true
	})
	if got.Groups[0].Estimates[0].Point != want {
		t.Errorf("inner join count = %g, want %g", got.Groups[0].Estimates[0].Point, want)
	}
}

// keyTable builds a one-column dimension table "name" whose key column k
// holds keys, in order.
func keyTable(t testing.TB, name string, keys ...types.Value) *storage.Table {
	t.Helper()
	tab := storage.NewTable(name, types.NewSchema(types.Column{Name: "k", Kind: keys[0].Kind}))
	b := storage.NewBuilder(tab, 8, 1, storage.InMemory)
	for _, k := range keys {
		b.AppendRow(types.Row{k})
	}
	return b.Finish()
}

func TestCompileJoinsErrors(t *testing.T) {
	fact := factTable(t, 10, 5, 7)
	dims := map[string]*storage.Table{
		"media": dimTable(t, 5),
		"twice": keyTable(t, "twice", types.Str("NY"), types.Str("SF"), types.Str("NY")),
		// Bool(true) is Int(1)'s Value.Key class: one key, twice.
		"oneclass": keyTable(t, "oneclass", types.Int(0), types.Int(1), types.Bool(true)),
		"nulls":    keyTable(t, "nulls", types.Null(), types.Str("NY"), types.Null()),
	}
	for src, want := range map[string]string{
		`SELECT COUNT(*) FROM views JOIN media ON bogus = objectid`:          `join column "bogus" not found`,
		`SELECT COUNT(*) FROM views JOIN media ON objectid = bogus`:          `join column "bogus" not in media`,
		`SELECT COUNT(*) FROM views JOIN media ON objectid = other.objectid`: `does not reference media`,
		`SELECT COUNT(*) FROM views JOIN twice ON city = k`:                  `join key NY repeats in twice`,
		`SELECT COUNT(*) FROM views JOIN oneclass ON objectid = k`:           `join key true repeats in oneclass`,
		`SELECT COUNT(*) FROM views JOIN nulls ON city = k`:                  `join key NULL repeats in nulls`,
	} {
		q, err := sqlparser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = CompileJoins(q, fact.Schema, func(name string) (*storage.Table, error) {
			return dims[name], nil
		})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("CompileJoins(%q) = %v, want an error containing %q", src, err, want)
		}
	}
}

// TestJoinChunkHeaders: the widened scan gives every fact chunk a header
// of its own, because the scan's per-chunk caches (dictionary verdicts,
// groups by dictionary code) key on column addresses. Two chunks whose
// dictionaries order the cities differently, cut into scan ranges that
// straddle the chunk boundary, grouped by the fact's dictionary column and
// filtered on a dimension column, answer as the oracle does.
func TestJoinChunkHeaders(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "v", Kind: types.KindFloat},
	)
	tab := storage.NewTable("t", schema)
	b := storage.NewBuilder(tab, 300, 2, storage.InMemory)
	rng := rand.New(rand.NewSource(11))
	orders := [][]string{{"NY", "SF", "LA", "Austin"}, {"Austin", "LA", "SF", "NY"}}
	const rows = 90000
	for i := 0; i < rows; i++ {
		order := orders[0]
		if i >= rows/2 {
			order = orders[1]
		}
		b.AppendRow(types.Row{types.Str(order[i%len(order)]), types.Float(rng.ExpFloat64() * 40)})
	}
	b.Finish()
	chunks := tab.Chunks()
	if len(chunks) != 2 || chunks[0].Cols[0].Dict[0] == chunks[1].Cols[0].Dict[0] {
		t.Fatal("the table is meant to be two chunks whose dictionaries start with different cities")
	}
	in := FromTable(tab)
	straddles := false
	for _, r := range in.ranges() {
		straddles = straddles || in.Blocks[r.Lo].Chunk != in.Blocks[r.Hi-1].Chunk
	}
	if !straddles {
		t.Fatal("no scan range straddles the chunk boundary")
	}
	regions := storage.NewTable("regions", types.NewSchema(
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "region", Kind: types.KindString},
	))
	db := storage.NewBuilder(regions, 4, 1, storage.InMemory)
	for _, r := range [][2]string{{"NY", "east"}, {"SF", "west"}, {"LA", "west"}, {"Austin", "south"}} {
		db.AppendRow(types.Row{types.Str(r[0]), types.Str(r[1])})
	}
	db.Finish()
	for _, src := range []string{
		`SELECT COUNT(*), SUM(v) FROM t JOIN regions ON city = name WHERE region = 'west' GROUP BY city`,
		`SELECT AVG(v) FROM t JOIN regions ON city = name WHERE region <> 'east' AND city <> 'LA' GROUP BY city`,
	} {
		p, joins := compileJoinQuery(t, src, tab, map[string]*storage.Table{"regions": regions})
		checkOracle(t, src, p, in, joins)
		want := oracle(p, in, joins, 0.95)
		for _, w := range []int{1, 4} {
			got := runJoin(t, p, in, joins, w)
			want.RowsScanned, want.BytesScanned = got.RowsScanned, got.BytesScanned
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s workers=%d: diverged from the oracle\nwant %+v\ngot  %+v", src, w, want, got)
			}
		}
	}
}

func BenchmarkJoin(b *testing.B) {
	fact := factTable(b, 50000, 100, 8)
	dim := dimTable(b, 100)
	plan, specs := compileJoinQuery(b,
		`SELECT SUM(watchtime) FROM views JOIN media ON objectid = objectid WHERE genre = 'western' GROUP BY city`,
		fact, map[string]*storage.Table{"media": dim})
	in := FromTable(fact)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runJoin(b, plan, in, specs, 1)
	}
}
