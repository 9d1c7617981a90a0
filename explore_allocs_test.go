//go:build !race

package blinkdb

import (
	"fmt"
	"math/rand"
	"testing"
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
	cols := make([]ColumnDef, 0, len(exploreDims)+4)
	for _, d := range exploreDims {
		cols = append(cols, Col(d.name, String))
	}
	cols = append(cols, Col("genre", String), Col("dt", Int), Col("sessiontime", Float), Col("buffering", Float))
	load := eng.CreateTable("sessions", cols...)
	rng := rand.New(rand.NewSource(1))
	zipfs := make([]*rand.Zipf, len(exploreDims))
	for i, d := range exploreDims {
		zipfs[i] = rand.NewZipf(rng, 2, 1, uint64(d.card-1))
	}
	for i := 0; i < rows; i++ {
		row := make([]any, 0, len(cols))
		for j, d := range exploreDims {
			row = append(row, fmt.Sprintf("%s%03d", d.name, zipfs[j].Uint64()))
		}
		g := rng.Intn(len(exploreGenres))
		row = append(row, exploreGenres[g], int64(rng.Intn(1000)),
			rng.ExpFloat64()*60*float64(1+g), rng.ExpFloat64()*0.8)
		if err := load.Append(row...); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.Close(); err != nil {
		t.Fatal(err)
	}
	opts := SampleOptions{BudgetFraction: 0.5}
	for i, w := range []float64{0.3, 0.2, 0.2, 0.2, 0.1} {
		opts.Templates = append(opts.Templates, Template{Columns: []string{exploreDims[i].name}, Weight: w})
	}
	if _, err := eng.CreateSamples("sessions", opts); err != nil {
		t.Fatal(err)
	}
	return eng
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

// TestExploreColdQueryAllocs pins what one cold explore_cold request
// allocates, so per-block costs cannot creep back into the probe path:
// with one Partial per 300-row block a request made ≈8.0k allocations
// (60 group maps, merges and clones per probe, four probes); with
// row-budgeted partials this measures ≈1.9k. The ceiling is that plus a
// quarter. Every query here is a new template, so each one prepares and
// probes. Not under -race: the detector allocates.
func TestExploreColdQueryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 250k-row engine")
	}
	eng := exploreEngine(t, 250000)
	queries := exploreQueries()
	before := eng.Stats()
	const runs = 400 // + AllocsPerRun's warm-up call: 401 of the 648 templates
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := eng.Query(queries[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	d := eng.Stats().Delta(before)
	if d.Prepares != runs+1 || d.ProbeExecs < 3*(runs+1) {
		t.Fatalf("queries were not cold: %d prepares, %d probes over %d queries", d.Prepares, d.ProbeExecs, runs+1)
	}
	const ceiling = 2450
	t.Logf("cold explore query: %.0f allocs/op (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("cold explore query allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}
