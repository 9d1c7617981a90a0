package exec

import (
	"context"
	"math"
	"math/rand"
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

// runJoin is RunJoin at 95% confidence under a background context, where
// it cannot fail.
func runJoin(t testing.TB, p *Plan, in Input, joins []JoinSpec, workers int) *Result {
	t.Helper()
	res, err := RunJoin(context.Background(), p, in, joins, 0.95, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestJoinedSchemaCollisionsQualified(t *testing.T) {
	fact := factTable(t, 10, 5, 1)
	dim := dimTable(t, 5)
	combined, offsets, err := JoinedSchema(fact.Schema, []*storage.Table{dim})
	if err != nil {
		t.Fatal(err)
	}
	// fact has objectid; dim's objectid collides → "media.objectid".
	if combined.Index("media.objectid") < 0 {
		t.Errorf("colliding column not qualified: %v", combined.Names())
	}
	if combined.Index("genre") < 0 {
		t.Error("non-colliding dim column should keep its name")
	}
	if offsets[0] != fact.Schema.Len() {
		t.Errorf("offset = %d", offsets[0])
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

func TestCompileJoinsErrors(t *testing.T) {
	fact := factTable(t, 10, 5, 7)
	dim := dimTable(t, 5)
	dims := map[string]*storage.Table{"media": dim}
	bad := []string{
		`SELECT COUNT(*) FROM views JOIN media ON bogus = objectid`,
		`SELECT COUNT(*) FROM views JOIN media ON objectid = bogus`,
		`SELECT COUNT(*) FROM views JOIN media ON objectid = other.objectid`,
	}
	for _, src := range bad {
		q, err := sqlparser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := CompileJoins(q, fact.Schema, func(name string) (*storage.Table, error) {
			return dims[name], nil
		}); err == nil {
			t.Errorf("CompileJoins(%q) should fail", src)
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
