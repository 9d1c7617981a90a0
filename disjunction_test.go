package blinkdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// disjunctionEngine loads rows — city, os, genre, sessiontime, ended — into
// an engine whose samples are drawn with seed, stratified as demoEngineCfg's
// are.
func disjunctionEngine(t testing.TB, rows [][]any, seed int64) *Engine {
	t.Helper()
	eng := Open(Config{Scale: 1e4, Seed: seed, CacheTables: true})
	load := eng.CreateTable("sessions",
		Col("city", String),
		Col("os", String),
		Col("genre", String),
		Col("sessiontime", Float),
		Col("ended", Bool),
	)
	for _, r := range rows {
		if err := load.Append(r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateSamples("sessions", SampleOptions{
		BudgetFraction: 0.5,
		K:              2000,
		Templates: []Template{
			{Columns: []string{"city"}, Weight: 0.7},
			{Columns: []string{"os"}, Weight: 0.3},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// fargoRows are n rows of the demo table (demoEngineCfg's generator) whose
// rare city, Fargo, has sessions about ten times longer: a disjunct on it
// holds few of a union's rows but moves its mean and its median, so an
// answer that weighs the parts wrongly misses the truth.
func fargoRows(n int) [][]any {
	rng := rand.New(rand.NewSource(3))
	cities := []string{"NY", "SF", "LA", "Austin", "Boise", "Fargo"}
	weights := []float64{0.5, 0.25, 0.15, 0.06, 0.03, 0.01}
	oses := []string{"Win7", "OSX", "Linux"}
	genres := []string{"western", "drama"}
	rows := make([][]any, n)
	for i := range rows {
		city := cities[len(cities)-1]
		u := rng.Float64()
		for c, w := range weights {
			if u -= w; u <= 0 {
				city = cities[c]
				break
			}
		}
		x := rng.ExpFloat64() * 100
		if city == "Fargo" {
			x = 1000 + rng.NormFloat64()*100
		}
		rows[i] = []any{city, oses[rng.Intn(3)], genres[rng.Intn(2)], x, rng.Float64() < 0.9}
	}
	return rows
}

// TestDisjunctionCoverage: §4.1.2 answers a disjunction from one sample per
// disjunct, and the union of the parts is estimated once — so its interval
// covers the exact answer as a conjunction's does. Over 20 sample seeds,
// each aggregate of an OR across two stratification columns, in both
// disjunct orders, must cover at least 17 times: the one-sided binomial
// bound at 0.95 for 95% intervals. A union that weighs its parts by their
// effective rows, averages their quantiles, or reads a sampled part's
// stratum frequencies as weights covers AVG or MEDIAN almost never.
func TestDisjunctionCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("20 engines over 200k rows")
	}
	const seeds, need = 20, 17
	rows := fargoRows(200000)
	orders := []string{`city = 'Fargo' OR os = 'Win7'`, `os = 'Win7' OR city = 'Fargo'`}
	aggs := []string{`AVG(sessiontime)`, `MEDIAN(sessiontime)`, `COUNT(*)`, `SUM(sessiontime)`}
	truth := make([]float64, len(aggs))
	exact := disjunctionEngine(t, rows, 1)
	for a, agg := range aggs {
		res, err := exact.Query(`SELECT ` + agg + ` FROM sessions WHERE ` + orders[0])
		if err != nil {
			t.Fatal(err)
		}
		truth[a] = res.Rows[0].Cells[0].Value
	}
	covered := make([][]int, len(aggs))
	sampled := 0
	for a := range covered {
		covered[a] = make([]int, len(orders))
	}
	for seed := int64(1); seed <= seeds; seed++ {
		eng := disjunctionEngine(t, rows, seed)
		for a, agg := range aggs {
			for o, where := range orders {
				res, err := eng.Query(`SELECT ` + agg + ` FROM sessions WHERE ` + where + ` ERROR WITHIN 5%`)
				if err != nil {
					t.Fatal(err)
				}
				c := res.Rows[0].Cells[0]
				if math.Abs(c.Value-truth[a]) <= c.Bound+1e-9*math.Abs(truth[a]) {
					covered[a][o]++
				}
				if !c.Exact {
					sampled++
				}
			}
		}
	}
	if sampled < seeds*len(aggs)*len(orders)/2 {
		t.Fatalf("only %d answers were sampled: the shapes test nothing", sampled)
	}
	for a, agg := range aggs {
		for o, where := range orders {
			t.Logf("%s WHERE %s: covered %d/%d (truth %.2f)", agg, where, covered[a][o], seeds, truth[a])
			if covered[a][o] < need {
				t.Errorf("%s WHERE %s: covered %d/%d, need %d", agg, where, covered[a][o], seeds, need)
			}
		}
	}
}

// TestDisjunctSpellingsShareTemplate: A OR B and B OR A are one query —
// one plan-cache entry, one answer.
func TestDisjunctSpellingsShareTemplate(t *testing.T) {
	eng := demoEnginePlanCacheOnly(t, 30000)
	const (
		ab = `SELECT AVG(sessiontime), SUM(sessiontime) FROM sessions WHERE city = 'Boise' OR os = 'Linux' ERROR WITHIN 10%`
		ba = `SELECT AVG(sessiontime), SUM(sessiontime) FROM sessions WHERE os = 'Linux' OR city = 'Boise' ERROR WITHIN 10%`
	)
	first, err := eng.Query(ab)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Query(ba)
	if err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.PlanCacheMisses != 1 || s.PlanCacheHits != 1 {
		t.Errorf("plan cache: %d misses / %d hits, want 1 / 1", s.PlanCacheMisses, s.PlanCacheHits)
	}
	if !reflect.DeepEqual(stripPlanCache(first), stripPlanCache(second)) {
		t.Errorf("the two spellings answer differently\n%+v\n%+v", first, second)
	}
}

// TestDisjunctionChainsConcurrently: a disjunction's walks each own a
// chain, and one with the parameters its template was prepared with takes
// the probe's. Eight goroutines replay one disjunctive template, half with
// one set of constants and half with another, and every answer must equal
// the serial one. On a cold plan cache they race to prepare the template
// and to take its chains; on one warmed by a single query, whose
// execution took the chains, replays with its constants find none and
// read their levels again. The disjuncts are covered by one family and
// time-bounded, so no decision depends on which constants prepared the
// template — only the bound projected from its probe (PredictedBound),
// which is left out; one set stays at the probe's level, the other reads
// past it. CI runs it under -race at several GOMAXPROCS.
func TestDisjunctionChainsConcurrently(t *testing.T) {
	eng := demoEnginePlanCacheOnly(t, 30000)
	srcs := []string{
		`SELECT AVG(sessiontime), MEDIAN(sessiontime), COUNT(*) FROM sessions WHERE city = 'Fargo' OR city = 'Boise' GROUP BY city WITHIN 1 SECONDS`,
		`SELECT AVG(sessiontime), MEDIAN(sessiontime), COUNT(*) FROM sessions WHERE city = 'LA' OR city = 'Austin' GROUP BY city WITHIN 2 SECONDS`,
	}
	want := make([]*Result, len(srcs))
	for i, src := range srcs {
		withCaches(eng, false, false)
		res, err := eng.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = unprojected(res)
	}
	for round := 0; round < 6; round++ {
		withCaches(eng, true, false)
		if round%2 == 1 {
			if _, err := eng.Query(srcs[round/2%2]); err != nil {
				t.Fatal(err)
			}
		}
		const goroutines = 8
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for rep := 0; rep < 2; rep++ {
					res, err := eng.Query(srcs[i])
					if err != nil {
						errs <- err
						return
					}
					if got := unprojected(res); !reflect.DeepEqual(want[i], got) {
						errs <- fmt.Errorf("round %d: %q answered otherwise than alone\nwant %+v\ngot  %+v", round, srcs[i], want[i], got)
						return
					}
				}
			}(g % len(srcs))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// unprojected is res without its cache markers and its projected bound.
func unprojected(res *Result) *Result {
	cp := stripPlanCache(res)
	cp.PredictedBound = 0
	return cp
}
