package blinkdb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"blinkdb/internal/elp"
	"blinkdb/internal/exec"
	"blinkdb/internal/sample"
	"blinkdb/internal/sqlparser"
)

// The benchmark's explore_cold shape, rebuilt here because benchmark/ is a
// main package: five Zipf(2) string dimensions, genre, dt and two floats
// under cmd/blinkdb-server's engine configuration, and a template list
// (aggregate × filter × group-by × dt cut) no family covers, so every
// cold query probes all four families before a small time-bounded scan.
var exploreDims = []struct {
	name string
	card int
}{{"city", 200}, {"os", 40}, {"browser", 60}, {"country", 80}, {"device", 25}}

var exploreGenres = []string{"drama", "news", "sports", "western"}

func exploreEngine(t testing.TB, rows int) *Engine {
	t.Helper()
	eng := Open(Config{Scale: 1e4, CacheTables: true})
	load := eng.CreateTable("sessions", exploreColumns()...)
	exploreRows(rows, 4096, func(batch [][]any) {
		for _, row := range batch {
			if err := load.Append(row...); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := load.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateSamples("sessions", exploreSampleOptions()); err != nil {
		t.Fatal(err)
	}
	return eng
}

func exploreColumns() []ColumnDef {
	cols := make([]ColumnDef, 0, len(exploreDims)+4)
	for _, d := range exploreDims {
		cols = append(cols, Col(d.name, String))
	}
	return append(cols, Col("genre", String), Col("dt", Int), Col("sessiontime", Float), Col("buffering", Float))
}

// exploreRows generates the explore shape's rows from seed 1, boxed the way
// Loader.Append takes them, and hands them to fn in batches of up to batch
// rows. The batch and its rows are reused from one call to the next.
func exploreRows(rows, batch int, fn func([][]any)) {
	rng := rand.New(rand.NewSource(1))
	zipfs := make([]*rand.Zipf, len(exploreDims))
	vocab := make([][]any, len(exploreDims))
	for i, d := range exploreDims {
		zipfs[i] = rand.NewZipf(rng, 2, 1, uint64(d.card-1))
		vocab[i] = make([]any, d.card)
		for r := range vocab[i] {
			vocab[i][r] = fmt.Sprintf("%s%03d", d.name, r)
		}
	}
	buf := make([][]any, batch)
	for i := range buf {
		buf[i] = make([]any, len(exploreDims)+4)
	}
	for done := 0; done < rows; {
		n := min(batch, rows-done)
		for _, row := range buf[:n] {
			for j := range exploreDims {
				row[j] = vocab[j][zipfs[j].Uint64()]
			}
			g := rng.Intn(len(exploreGenres))
			row[len(exploreDims)] = exploreGenres[g]
			row[len(exploreDims)+1] = int64(rng.Intn(1000))
			row[len(exploreDims)+2] = rng.ExpFloat64() * 60 * float64(1+g)
			row[len(exploreDims)+3] = rng.ExpFloat64() * 0.8
		}
		fn(buf[:n])
		done += n
	}
}

func exploreSampleOptions() SampleOptions {
	opts := SampleOptions{BudgetFraction: 0.5}
	for i, w := range []float64{0.3, 0.2, 0.2, 0.2, 0.1} {
		opts.Templates = append(opts.Templates, Template{Columns: []string{exploreDims[i].name}, Weight: w})
	}
	return opts
}

// exploreQueries returns the 648 templates with fixed constants and the
// workload's 2 s time bound, in the benchmark's stride order.
func exploreQueries() []string {
	aggs := []string{"COUNT(*)", "AVG(sessiontime)", "AVG(buffering)", "SUM(sessiontime)",
		"SUM(buffering)", "COUNT(*), AVG(sessiontime)"}
	cols := []string{"city", "os", "browser", "country", "device", "genre"}
	var tmpls []string
	for _, agg := range aggs {
		for _, filter := range cols {
			value := filter + "001"
			if filter == "genre" {
				value = exploreGenres[1]
			}
			for _, group := range append([]string{""}, cols...) {
				if group == filter {
					continue
				}
				for _, dt := range []string{"", " AND dt < 700", " AND dt >= 300"} {
					sql := "SELECT " + agg + " FROM sessions WHERE " + filter + " = '" + value + "'" + dt
					if group != "" {
						sql += " GROUP BY " + group
					}
					tmpls = append(tmpls, sql+" WITHIN 2 SECONDS")
				}
			}
		}
	}
	out := make([]string, len(tmpls))
	for i := range tmpls {
		out[i] = tmpls[i*271%len(tmpls)]
	}
	return out
}

// probeViewOf mirrors the runtime's probe resolution: the smallest level
// with at least elp.MinProbeRows rows, else the largest. The sweep below
// checks it against the level every winner's first answer was actually
// served at.
func probeViewOf(f *sample.Family) sample.View {
	for lvl := 0; lvl < f.Resolutions(); lvl++ {
		if v := f.View(lvl); v.Rows() >= elp.MinProbeRows {
			return v
		}
	}
	return f.Largest()
}

// TestExploreDecisionsMatchFullProbes is decision identity at the engine:
// for each of the 648 templates, cold, over the families CreateSamples chose,
// every Probed entry is what the full plan reports on that family's probe
// view, the chosen family is the argmax under the 0.9 uniform tie-break, and
// the session's first answer — the prepared probe Result itself, streamed at
// the probe's resolution — is DeepEqual to a full-plan run on that view.
// Candidates are compared on count-only passes; nothing they decide may
// differ from comparing full-plan probes.
func TestExploreDecisionsMatchFullProbes(t *testing.T) {
	eng := exploreEngine(t, 60000)
	entry, err := eng.cat.Lookup("sessions")
	if err != nil {
		t.Fatal(err)
	}
	probed, stratifiedWins := 0, 0
	for _, src := range exploreQueries() {
		q, err := sqlparser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		key, params := sqlparser.Normalize(q)
		var first *elp.Response
		firstLevel := 0
		final, err := eng.rt.Run(context.Background(), q, key, params, nil, func(resp *elp.Response, level int) error {
			if first == nil {
				first, firstLevel = resp, level
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil { // one step: the final is the first answer
			first, firstLevel = final, final.Decisions[0].View.Level
		}
		dec := first.Decisions[0]
		if len(first.Decisions) != 1 || dec.UsedBase {
			t.Fatalf("%q: not a single-disjunct sample answer: %+v", src, first.Decisions)
		}
		if len(dec.Probed) == 0 {
			continue // a covering family: nothing was compared
		}
		probed++
		plan, err := exec.Compile(q, entry.Table.Schema)
		if err != nil {
			t.Fatal(err)
		}
		full := func(v sample.View) *exec.Result {
			return exec.Run(plan, exec.FromView(v).Pruned(plan), eng.cfg.Confidence)
		}
		var best, uniform *sample.Family
		bestRatio, uniformRatio := -1.0, -1.0
		for i, got := range dec.Probed {
			want := full(probeViewOf(got.Family))
			if got.Selectivity != want.Selectivity() || got.Matched != want.RowsMatched {
				t.Fatalf("%q: Probed[%d] (%s) = %v/%d, the full plan on its probe view reports %v/%d", src, i,
					got.Family.Label(), got.Selectivity, got.Matched, want.Selectivity(), want.RowsMatched)
			}
			if got.Selectivity > bestRatio {
				best, bestRatio = got.Family, got.Selectivity
			}
			if got.Family.IsUniform() {
				uniform, uniformRatio = got.Family, got.Selectivity
			}
		}
		if uniform != nil && !best.IsUniform() && uniformRatio >= 0.9*bestRatio {
			best = uniform
		}
		if dec.View.Family != best {
			t.Fatalf("%q: chose %s, the argmax under the uniform tie-break is %s", src, dec.View.Family.Label(), best.Label())
		}
		if pv := probeViewOf(best); firstLevel != pv.Level || dec.View.Level != pv.Level {
			t.Fatalf("%q: first answer at level %d, the probe view is level %d", src, firstLevel, pv.Level)
		}
		if want := full(dec.View); !reflect.DeepEqual(first.Result, want) {
			t.Fatalf("%q: the prepared probe is not the full plan's run on %s\nwant %+v\ngot  %+v", src, dec.View, want, first.Result)
		}
		if !best.IsUniform() {
			stratifiedWins++
		}
	}
	if d := eng.Stats(); d.Prepares != 648 || probed < 600 || stratifiedWins == 0 || stratifiedWins == probed {
		t.Errorf("%d prepares, %d templates that probed, %d stratified winners: want 648 cold queries, nearly all probing, winners of both kinds",
			d.Prepares, probed, stratifiedWins)
	}
}

// BenchmarkExploreColdQuery times one cold explore_cold request in process:
// parse, prepare, a count pass per candidate family, the plan on the winner,
// a small time-bounded scan. Every iteration is a template the engine has
// not seen; the engine is rebuilt, off the clock, when the 648 run out.
func BenchmarkExploreColdQuery(b *testing.B) {
	queries := exploreQueries()
	var eng *Engine
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%len(queries) == 0 {
			b.StopTimer()
			eng = exploreEngine(b, 250000)
			b.StartTimer()
		}
		if _, err := eng.Query(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}
