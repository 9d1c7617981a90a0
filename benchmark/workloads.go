package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// request is one /query call. Bounds travel in the payload's
// error/confidence/time_seconds fields, so sql stays bare and doubles as
// the exact ground-truth query.
type request struct {
	sql      string
	errorPct float64 // requested relative error at 95%, 0 = none
	timeS    float64 // requested WITHIN seconds, 0 = none
	stream   bool
	adhoc    bool   // drawn from the adhoc_scan mix (refresh_mixed accounting)
	body     []byte // pre-marshalled payload
}

// boundSQL is the statement the server executes for r: the text
// server.bindBounds appends, reproduced so the in-process pass runs the
// same query.
func (r *request) boundSQL() string {
	sql := r.sql
	if r.errorPct > 0 {
		sql += fmt.Sprintf(" ERROR WITHIN %g%% AT CONFIDENCE 95%%", r.errorPct)
	}
	if r.timeS > 0 {
		sql += fmt.Sprintf(" WITHIN %g SECONDS", r.timeS)
	}
	return sql
}

func (r *request) marshal() {
	payload := struct {
		SQL         string  `json:"sql"`
		Stream      bool    `json:"stream,omitempty"`
		Error       string  `json:"error,omitempty"`
		Confidence  string  `json:"confidence,omitempty"`
		TimeSeconds float64 `json:"time_seconds,omitempty"`
	}{SQL: r.sql, Stream: r.stream, TimeSeconds: r.timeS}
	if r.errorPct > 0 {
		payload.Error = fmt.Sprintf("%g%%", r.errorPct)
		payload.Confidence = "95%"
	}
	body, err := json.Marshal(payload)
	if err != nil {
		panic(err) // a struct of strings, bools and finite floats always marshals
	}
	r.body = body
}

// workload is a named, seeded request sequence. The timed phase wraps
// around when it outruns the sequence; every sequence is longer than the
// result cache, so wrapping never turns a miss workload into a hit one.
type workload struct {
	name   string
	why    string
	warmup int // untimed requests sent before anything is measured
	traceN int // requests in the traced run's fixed prefix (at -duration 10s)
	// refresh makes the last client call Engine.RefreshSamples between its
	// requests, about once a second (see refreshEvery).
	refresh bool
	build   func(rng *rand.Rand) []request
}

var workloads = []workload{
	{
		name:   "dash_hot",
		why:    "Dashboard replays that fit the result cache: decode, parse, cache hit, encode and net/http do the work, the scan almost none.",
		warmup: 6000, traceN: 15000,
		build: func(rng *rand.Rand) []request { return dashRequests(rng, 1<<15) },
	},
	{
		name:   "adhoc_scan",
		why:    "Six templates with fresh constants and tight bounds: the plan cache hits, the result cache never does, scan and merge dominate.",
		warmup: 300, traceN: 2000,
		build: func(rng *rand.Rand) []request { return adhocRequests(rng, 1<<14) },
	},
	{
		name:   "explore_cold",
		why:    "648 templates cycled through a 256-entry plan cache: every request parses, prepares and probes every family before a small scan.",
		warmup: len(exploreTemplates()), traceN: 2 * len(exploreTemplates()),
		build: func(rng *rand.Rand) []request { return exploreRequests(rng, 12) },
	},
	{
		name:   "refresh_mixed",
		why:    "Half dashboard, half ad-hoc, beside a sample refresh every second: each epoch bump stales both caches and they re-warm.",
		warmup: 3000, traceN: 3000, refresh: true,
		build: func(rng *rand.Rand) []request { return mixedRequests(rng, 1<<14) },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// requests builds the workload's sequence from seed: every 4th request
// streams, and every body is marshalled up front.
func (w workload) requests(seed int64) []request {
	reqs := w.build(rand.New(rand.NewSource(seed)))
	for i := range reqs {
		reqs[i].stream = i%4 == 3
		reqs[i].marshal()
	}
	return reqs
}

// Template choice follows fixed patterns, not draws: the seed moves data
// and constants, while every window of the sequence holds the same
// template mix, so counts such as rows scanned per query compare across
// seeds. Pattern lengths and the bound cycles below are odd, so that
// "every 4th request streams" reaches every template and every bound.
var (
	dashPattern  = [21]int{0, 1, 2, 0, 1, 3, 0, 1, 0, 1, 2, 0, 1, 3, 0, 1, 0, 1, 2, 3, 0}
	adhocPattern = [9]int{0, 1, 2, 3, 0, 4, 1, 5, 2}
	mixedPattern = [8]bool{false, true, true, false, true, false, false, true} // true = ad-hoc
)

// dashRequests builds n requests over 4 templates and at most
// 200+316+4+10 = 530 distinct (template, constants) pairs, which fits the
// 1,024-entry result cache. Two templates return one row; the two GROUP BY
// panels (6 requests in 21) return ~40 and ~200 groups, so copying and
// encoding a result is a real share of a request. The one-row templates'
// bounds (15%, 20%) are what the smallest resolution of their family meets
// for the most frequent value: a template's resolution is chosen from its
// first request's probe, and a rare first value must not leave the
// frequent ones short. The country template skips the most frequent
// country: as a first request it sends the template to the uniform family,
// where every later, rarer country matches a dozen rows.
func dashRequests(rng *rand.Rand, n int) []request {
	city, country, os := dims[0], dims[3], dims[1]
	// Zipf(1.1) ranks: dashboards ask about the popular values most.
	rank := func(domain int) func() int {
		z := rand.NewZipf(rng, 1.1, 1, uint64(domain-1))
		return func() int { return int(z.Uint64()) }
	}
	cityRank, pairRank, genreRank, cutRank := rank(city.card), rank((country.card-1)*len(genres)), rank(len(genres)), rank(10)
	out := make([]request, n)
	for i := range out {
		var sql string
		bound := 10.0
		switch dashPattern[i%len(dashPattern)] {
		case 0:
			sql = fmt.Sprintf("SELECT AVG(sessiontime) FROM sessions WHERE city = '%s'",
				dimValue(city, cityRank()))
			bound = 15
		case 1:
			pair := pairRank()
			sql = fmt.Sprintf("SELECT COUNT(*), AVG(buffering) FROM sessions WHERE country = '%s' AND genre = '%s'",
				dimValue(country, 1+pair/len(genres)), genres[pair%len(genres)])
			bound = 20
		case 2:
			sql = fmt.Sprintf("SELECT COUNT(*), AVG(sessiontime) FROM sessions WHERE genre = '%s' GROUP BY %s",
				genres[genreRank()], os.name)
		default:
			sql = fmt.Sprintf("SELECT AVG(buffering) FROM sessions WHERE dt < %d GROUP BY %s",
				dtRange-100*cutRank(), city.name)
		}
		out[i] = request{sql: sql, errorPct: bound}
	}
	return out
}

// adhocRequests builds n requests over 6 templates (well inside the
// 256-entry plan cache) whose dt range is redrawn every time: 22,500
// ranges per template, so under 1% of requests replay an answer the
// result cache still holds. Every range keeps 70-100% of the rows: the
// resolution a template runs at is fixed by its first request's probe,
// and the bounds below sit in the middle of what one resolution can meet
// over that span, so the seed does not flip the choice.
// Templates are chosen so the family the first probe picks does not hang
// on the draw: filters on os and device (no family stratifies them) go to
// the 10% uniform family, the mid-frequency city filter to S(city). 5
// requests in 45 ask templates 0 and 3 for 1-2%, which no sample can meet
// and the engine answers from the base table; 2 in 9 are time-bounded
// instead.
func adhocRequests(rng *rand.Rand, n int) []request {
	out := make([]request, n)
	for i := range out {
		lo := rng.Intn(dtRange * 3 / 20)
		hi := dtRange - rng.Intn(dtRange*3/20)
		round := i / len(adhocPattern)
		r := request{adhoc: true}
		switch adhocPattern[i%len(adhocPattern)] {
		case 0:
			r.sql = fmt.Sprintf("SELECT AVG(sessiontime) FROM sessions WHERE dt >= %d AND dt < %d", lo, hi)
			r.errorPct = []float64{2.7, 1, 2, 1, 2}[round%5]
		case 1:
			r.sql = fmt.Sprintf("SELECT COUNT(*), AVG(buffering) FROM sessions WHERE dt >= %d AND dt < %d GROUP BY genre", lo, hi)
			r.errorPct = 3.25
		case 2:
			r.sql = fmt.Sprintf("SELECT AVG(sessiontime), AVG(buffering) FROM sessions WHERE os = '%s' AND dt >= %d AND dt < %d",
				dimValue(dims[1], 0), lo, hi)
			r.errorPct = 3.5
		case 3:
			r.sql = fmt.Sprintf("SELECT SUM(buffering), COUNT(*) FROM sessions WHERE device = '%s' AND dt >= %d AND dt < %d",
				dimValue(dims[4], 0), lo, hi)
			r.errorPct = []float64{6, 6, 2, 6, 6}[round%5]
		case 4:
			r.sql = fmt.Sprintf("SELECT AVG(sessiontime) FROM sessions WHERE dt >= %d AND dt < %d GROUP BY %s", lo, hi, dims[1].name)
			r.timeS = []float64{2, 3, 4}[round%3]
		default:
			r.sql = fmt.Sprintf("SELECT COUNT(*), AVG(sessiontime) FROM sessions WHERE city = '%s' AND dt >= %d AND dt < %d",
				dimValue(dims[0], 2+rng.Intn(4)), lo, hi)
			r.timeS = []float64{2, 3, 4}[round%3]
		}
		out[i] = r
	}
	return out
}

// mixedRequests interleaves the two mixes half and half.
func mixedRequests(rng *rand.Rand, n int) []request {
	dash, adhoc := dashRequests(rng, n), adhocRequests(rng, n)
	out := make([]request, n)
	nd, na := 0, 0
	for i := range out {
		if mixedPattern[i%len(mixedPattern)] {
			out[i], na = adhoc[na], na+1
		} else {
			out[i], nd = dash[nd], nd+1
		}
	}
	return out
}

// exploreTemplate is one template's format string: a %s for the filter
// value, then a %d when dtCut is set.
type exploreTemplate struct {
	format string
	filter string
	dtCut  bool
}

// exploreTemplates enumerates aggregate × filter column × group-by column
// × dt range: 6 × (6×7 − 6) × 3 = 648 templates, 2.5× the plan cache.
func exploreTemplates() []exploreTemplate {
	aggs := []string{"COUNT(*)", "AVG(sessiontime)", "AVG(buffering)", "SUM(sessiontime)",
		"SUM(buffering)", "COUNT(*), AVG(sessiontime)"}
	cols := make([]string, 0, len(dims)+1)
	for _, d := range dims {
		cols = append(cols, d.name)
	}
	cols = append(cols, "genre")
	var out []exploreTemplate
	for _, agg := range aggs {
		for _, filter := range cols {
			for _, group := range append([]string{""}, cols...) {
				if group == filter {
					continue
				}
				for _, dt := range []string{"", " AND dt < %d", " AND dt >= %d"} {
					sql := "SELECT " + agg + " FROM sessions WHERE " + filter + " = '%s'" + dt
					if group != "" {
						sql += " GROUP BY " + group
					}
					out = append(out, exploreTemplate{format: sql, filter: filter, dtCut: dt != ""})
				}
			}
		}
	}
	return out
}

// exploreRequests cycles the templates in one fixed order (a stride
// coprime with 648, so neighbours differ in aggregate and columns).
// Constants move every cycle (a top-4 filter value, a fresh dt cut), so an
// answer recurs at the earliest 4 cycles = 2,592 requests later, long
// after the 1,024-entry result cache dropped it. The 2 s time bound keeps
// the final scan on a lower resolution: preparing is the work here.
func exploreRequests(rng *rand.Rand, cycles int) []request {
	tmpls := exploreTemplates()
	value := func(col string, rank int) string {
		for _, d := range dims {
			if d.name == col {
				return dimValue(d, rank%4)
			}
		}
		return genres[rank%len(genres)]
	}
	out := make([]request, 0, cycles*len(tmpls))
	for c := 0; c < cycles; c++ {
		for i := range tmpls {
			t := tmpls[i*271%len(tmpls)]
			args := []any{value(t.filter, c+i)}
			if t.dtCut {
				args = append(args, 200+rng.Intn(600))
			}
			out = append(out, request{sql: fmt.Sprintf(t.format, args...), timeS: 2})
		}
	}
	return out
}
