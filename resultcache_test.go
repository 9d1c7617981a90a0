package blinkdb

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blinkdb/internal/sqlparser"
)

// TestResultCacheEquivalenceEndToEnd is the public-API acceptance check
// of the result-cache tentpole: an engine with the result cache disabled
// (withCaches) behaves exactly like the PR 4 pipeline — no
// result= markers anywhere — and the default engine returns the same
// answers — estimates, error bars, scan counters AND simulated latencies
// — on the executing miss and on every replayed hit.
func TestResultCacheEquivalenceEndToEnd(t *testing.T) {
	const rows = 30000
	base := Config{Scale: 1e4, Seed: 7, CacheTables: true, Workers: 1}
	engOff := withCaches(demoEngineCfg(t, rows, base), true, false)
	engOn := demoEngineCfg(t, rows, base)

	for _, src := range demoQueries {
		want, err := engOff.Query(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if want.ResultCache != "" {
			t.Fatalf("%q: disabled result cache must not annotate, got %q", src, want.ResultCache)
		}
		if strings.Contains(want.Explanation, "result=") {
			t.Fatalf("%q: disabled result cache leaked a marker into EXPLAIN: %q", src, want.Explanation)
		}
		for rep := 0; rep < 2; rep++ {
			got, err := engOn.Query(src)
			if err != nil {
				t.Fatalf("%q rep %d: %v", src, rep, err)
			}
			wantNote := "hit"
			if rep == 0 {
				wantNote = "miss"
			}
			if got.ResultCache != wantNote {
				t.Errorf("%q rep %d: ResultCache = %q, want %q", src, rep, got.ResultCache, wantNote)
			}
			if !strings.Contains(got.Explanation, "result="+wantNote) {
				t.Errorf("%q rep %d: EXPLAIN %q missing result=%s", src, rep, got.Explanation, wantNote)
			}
			// A result hit skips the plan pipeline: no plan-cache marker.
			if rep > 0 && got.PlanCache != "" {
				t.Errorf("%q rep %d: result hit leaked PlanCache %q", src, rep, got.PlanCache)
			}
			if !reflect.DeepEqual(stripPlanCache(want), stripPlanCache(got)) {
				t.Errorf("%q rep %d (%s): result-cached engine diverged from result-cache-off\nwant %+v\ngot  %+v",
					src, rep, wantNote, stripPlanCache(want), stripPlanCache(got))
			}
		}
	}
	s := engOn.Stats()
	if s.ResultCacheHits != int64(len(demoQueries)) || s.ResultCacheMisses != int64(len(demoQueries)) {
		t.Errorf("stats: %d hits / %d misses, want %d / %d",
			s.ResultCacheHits, s.ResultCacheMisses, len(demoQueries), len(demoQueries))
	}
	if hr := s.ResultCacheHitRate(); hr < 0.49 || hr > 0.51 {
		t.Errorf("hit rate = %.3f, want 0.5 (one hit per miss)", hr)
	}
	if off := engOff.Stats(); off.ResultCacheHits != 0 || off.ResultCacheMisses != 0 || off.ResultCacheShared != 0 {
		t.Errorf("disabled result cache counted outcomes: %+v", off)
	}
}

// TestResultCacheInvalidationOnRefresh: after RefreshSamples, a cached
// answer must re-execute — never serve a result computed from replaced
// samples.
func TestResultCacheInvalidationOnRefresh(t *testing.T) {
	eng := demoEngine(t, 20000)
	const src = `SELECT AVG(sessiontime) FROM sessions WHERE genre = 'western' ERROR WITHIN 20%`

	if _, err := eng.Query(src); err != nil {
		t.Fatal(err)
	}
	if res, _ := eng.Query(src); res.ResultCache != "hit" {
		t.Fatalf("warm query should hit the result cache, got %q", res.ResultCache)
	}
	if _, ok, err := eng.RefreshSamples("sessions"); err != nil || !ok {
		t.Fatalf("refresh: ok=%v err=%v", ok, err)
	}
	before := eng.Stats()
	res, err := eng.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultCache != "miss" {
		t.Fatalf("post-refresh query served a stale answer: %q, want miss", res.ResultCache)
	}
	after := eng.Stats()
	if after.PlanExecs == before.PlanExecs {
		t.Error("post-refresh query must re-execute")
	}
	// And the re-executed answer is cached again.
	if res, _ := eng.Query(src); res.ResultCache != "hit" {
		t.Errorf("re-cached answer should hit, got %q", res.ResultCache)
	}

	// The same under fire (run with -race): 8 goroutines replay one hot
	// key — half through Query's private copies, half through Answer's
	// shared served form and its cached bytes — while samples refresh
	// underneath. An answer whose own lookup began after refresh k was
	// published must be an answer of epoch k or later, and a served
	// form's bytes must always be the encoding of the Result they ride
	// with. (A fresh engine: refreshes rotate over the families in catalog
	// order, so its first re-draws family 0, S([city]), which the hot
	// query reads.)
	eng = demoEngine(t, 20000)
	hot := `SELECT AVG(sessiontime), COUNT(*) FROM sessions GROUP BY city ERROR WITHIN 10%` // on S([city]), the family refreshed first
	encode := func(res *Result) string {
		cp := *res // the rows only: markers differ between a miss and its hits
		cp.Explanation, cp.PlanCache, cp.ResultCache = "", "", ""
		return string(cp.appendJSON(nil))
	}
	answerOf := func() string {
		res, err := eng.Query(hot)
		if err != nil {
			t.Fatal(err)
		}
		return encode(res)
	}
	const refreshes = 6
	epochs := []string{answerOf()} // epochs[k] is the answer after k refreshes
	var published atomic.Int32
	type seen struct {
		epoch  int32
		answer string
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	sightings := make([][]seen, 8)
	var shared bool // written by goroutine 1 alone
	for g := range sightings {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				at := published.Load()
				if g%2 == 0 {
					res, err := eng.Query(hot)
					if err != nil {
						t.Error(err)
						return
					}
					sightings[g] = append(sightings[g], seen{at, encode(res)})
					res.Rows[0].Group, res.Rows[0].Cells[0].Value = "scribbled", -1 // ours to ruin
					continue
				}
				q, err := sqlparser.Parse(hot)
				if err != nil {
					t.Error(err)
					return
				}
				u, err := eng.Answer(context.Background(), NewStatement(q, time.Now()))
				if err != nil {
					t.Error(err)
					return
				}
				if g == 1 {
					shared = shared || u.wire != nil
				}
				if got, want := u.wire, u.Result.appendJSON(nil); got != nil && !bytes.Equal(got, want) {
					t.Errorf("cached bytes are not the encoding of their Result:\n got %s\nwant %s", got, want)
					return
				}
				sightings[g] = append(sightings[g], seen{at, encode(u.Result)})
			}
		}(g)
	}
	for k := 1; k <= refreshes; k++ {
		if _, ok, err := eng.RefreshSamples("sessions"); err != nil || !ok {
			t.Fatalf("refresh %d: ok=%v err=%v", k, ok, err)
		}
		epochs = append(epochs, answerOf()) // read by nobody until the goroutines are done
		published.Store(int32(k))
	}
	close(stop)
	wg.Wait()
	if !shared {
		t.Error("Answer never served an entry's cached bytes")
	}
	if epochs[0] == epochs[1] {
		t.Fatal("the refresh did not change the hot answer: the check below would prove nothing")
	}
	n := 0
	for g, ss := range sightings {
		for _, s := range ss {
			n++
			ok := false
			for _, a := range epochs[s.epoch:] {
				ok = ok || a == s.answer
			}
			if !ok {
				t.Errorf("goroutine %d: a lookup begun after refresh %d returned an answer of an earlier epoch (or a scribbled one):\n%s", g, s.epoch, s.answer)
			}
		}
	}
	t.Logf("%d concurrent answers across %d refreshes", n, refreshes)
}

// TestResultCacheInvalidationOnMaintain: a forced Maintain pass that
// rebuilds families invalidates cached answers the same way.
func TestResultCacheInvalidationOnMaintain(t *testing.T) {
	eng := demoEngine(t, 20000)
	const src = `SELECT AVG(sessiontime) FROM sessions WHERE genre = 'western' ERROR WITHIN 20%`
	if _, err := eng.Query(src); err != nil {
		t.Fatal(err)
	}
	if res, _ := eng.Query(src); res.ResultCache != "hit" {
		t.Fatal("warm query should hit the result cache")
	}
	rep, err := eng.Maintain("sessions", MaintainOptions{
		Templates: []Template{{Columns: []string{"genre"}, Weight: 1}},
		Force:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("forced maintain should re-solve: %+v", rep)
	}
	res, err := eng.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultCache != "miss" {
		t.Errorf("post-maintain query served a stale answer: %q, want miss", res.ResultCache)
	}
}

// TestResultCacheSingleflightEndToEnd is the engine-level -race check of
// the singleflight contract: 8 goroutines racing ONE cold query must
// trigger exactly one execution (Stats-counted) and all receive equal
// answers. Run under -race in CI.
func TestResultCacheSingleflightEndToEnd(t *testing.T) {
	eng := demoEngine(t, 20000)
	// A twin engine (identical deterministic dataset) measures the
	// executor cost of one serial cold run of the same query.
	twin := demoEngine(t, 20000)
	const src = `SELECT AVG(sessiontime) FROM sessions WHERE genre = 'western' GROUP BY os ERROR WITHIN 20%`
	want, err := twin.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	oneCold := twin.Stats()

	const goroutines = 8
	results := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			results[g], errs[g] = eng.Query(src)
		}(g)
	}
	close(start)
	wg.Wait()

	notes := map[string]int{}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		notes[results[g].ResultCache]++
		if !reflect.DeepEqual(stripPlanCache(want), stripPlanCache(results[g])) {
			t.Errorf("goroutine %d (%s): answer diverged from the serial cold run",
				g, results[g].ResultCache)
		}
	}
	s := eng.Stats()
	if s.ResultCacheMisses != 1 {
		t.Errorf("ResultCacheMisses = %d, want 1; notes %v", s.ResultCacheMisses, notes)
	}
	if s.ResultCacheHits+s.ResultCacheShared != goroutines-1 {
		t.Errorf("hits+shared = %d+%d, want %d", s.ResultCacheHits, s.ResultCacheShared, goroutines-1)
	}
	if s.Prepares != oneCold.Prepares || s.PlanExecs != oneCold.PlanExecs || s.ProbeExecs != oneCold.ProbeExecs {
		t.Errorf("concurrent cold key cost %d prepares / %d plan execs / %d probes; one serial run costs %d / %d / %d (notes %v)",
			s.Prepares, s.PlanExecs, s.ProbeExecs, oneCold.Prepares, oneCold.PlanExecs, oneCold.ProbeExecs, notes)
	}
}

// TestCallersOwnTheirResults: a Result the SQL-text entry points return is
// the caller's own. A caller that writes into every layer of one — rows,
// cells, Explanation, counters — on a miss, a hit, a singleflight-shared
// answer and a streamed final changes no later answer: each equals the
// answer of an engine without caches, cache markers aside.
func TestCallersOwnTheirResults(t *testing.T) {
	eng := demoEngine(t, 20000)
	ref := withCaches(demoEngine(t, 20000), false, false)
	vandalize := func(r *Result) {
		for i := range r.Rows {
			r.Rows[i].Group = "vandalized"
			for j := range r.Rows[i].Cells {
				// Every field but the name: a form whose names differ
				// from the query's aliases is never served.
				c := &r.Rows[i].Cells[j]
				c.Value, c.Bound, c.RelErr, c.Exact, c.Rows = -1, -1, -1, !c.Exact, -1
			}
		}
		r.Explanation, r.SampleDescription = "vandalized", "vandalized"
		r.RowsScanned, r.RowsMatched, r.SimLatencySeconds, r.PredictedBound, r.Level = -1, -1, -1, -1, -2
	}
	seen := map[string]int{}
	// check holds res, an answer to src, to the cache-free engine's, then
	// writes over it.
	check := func(src string, res *Result) {
		t.Helper()
		want, err := ref.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		seen[res.ResultCache]++
		if !reflect.DeepEqual(stripPlanCache(want), stripPlanCache(res)) {
			t.Errorf("%s answer to %q is not the pristine one\nwant %+v\ngot  %+v", res.ResultCache, src, want, res)
		}
		vandalize(res)
	}
	query := func(src string) *Result {
		t.Helper()
		res, err := eng.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	const src = `SELECT AVG(sessiontime), COUNT(*) FROM sessions WHERE city = 'NY' GROUP BY os ERROR WITHIN 10%`
	for range 3 { // a miss, then hits of its entry
		check(src, query(src))
	}

	// A stream that blocks in its first refinement holds its flight open,
	// so a plain query of the same key joins it and is handed the shared
	// answer; then both replay as hits. A key whose waiter came too late
	// (a hit) is retried with another bound.
	for try := 0; seen["shared"] == 0 && try < 5; try++ {
		src := fmt.Sprintf(`SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN %.1f%%`, 5-0.1*float64(try))
		inFlight, release := make(chan struct{}), make(chan struct{})
		var final *Result
		streamed := make(chan error, 1)
		go func() {
			streamed <- eng.QueryStream(context.Background(), src, func(u StreamUpdate) error {
				if u.Final {
					final = u.Result
					return nil
				}
				if u.Seq == 0 {
					close(inFlight)
					<-release
				}
				vandalize(u.Result)
				return nil
			})
		}()
		select {
		case <-inFlight:
		case err := <-streamed:
			t.Fatalf("%q streamed no refinement (err %v): the test needs one to hold the flight", src, err)
		}
		waiter := make(chan *Result, 1)
		go func() {
			res, err := eng.Query(src)
			if err != nil {
				t.Error(err)
			}
			waiter <- res
		}()
		time.Sleep(50 * time.Millisecond) // let the waiter reach the flight
		close(release)
		if err := <-streamed; err != nil {
			t.Fatal(err)
		}
		if final.ResultCache != "miss" {
			t.Fatalf("the streamed final is a %q, want the flight's miss", final.ResultCache)
		}
		check(src, final)
		if res := <-waiter; res != nil {
			check(src, res)
		}
		for range 2 {
			check(src, query(src))
		}
	}
	if seen["miss"] == 0 || seen["hit"] == 0 || seen["shared"] == 0 {
		t.Errorf("outcomes %v: want a miss, a hit and a shared answer", seen)
	}
}
