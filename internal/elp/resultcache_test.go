package elp

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"blinkdb/internal/exec"
	"blinkdb/internal/sample"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/telemetry"
)

// stripResult clears the result-cache outcome so hit/miss/shared servings
// can be compared against each other and against result-cache-free
// references.
func stripResult(resp *Response) *Response {
	cp := *resp
	cp.ResultCache = ""
	return &cp
}

// stripAll clears both cache outcomes.
func stripAll(resp *Response) *Response { return stripCache(stripResult(resp)) }

// resultRuntimes builds, over ONE shared catalog/cluster, the runtime
// under test (plan cache + result cache) and a plan-cache-only reference
// whose behavior is exactly PR 4's pipeline.
func resultRuntimes(t testing.TB, rows int) (*fixture, *Runtime) {
	f := newFixture(t, rows, Options{PlanCacheSize: 64, ResultCacheSize: 64})
	ref := New(f.cat, f.clus, Options{PlanCacheSize: 64})
	return f, ref
}

// TestResultCacheBitIdentity is the tentpole acceptance test at the elp
// layer: with the result cache enabled, every serving — the executing
// miss AND every replayed hit — must be DeepEqual (including simulated
// latencies and decisions, modulo the annotation markers) to the
// result-cache-free pipeline over the same catalog.
func TestResultCacheBitIdentity(t *testing.T) {
	f, ref := resultRuntimes(t, 30000)
	for _, src := range cacheQueries {
		for rep := 0; rep < 3; rep++ {
			want, err := answer(ref, parse(t, src))
			if err != nil {
				t.Fatalf("%q rep %d (ref): %v", src, rep, err)
			}
			got, err := answer(f.rt, parse(t, src))
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
			for _, d := range got.Decisions {
				if strings.Contains(d.Reason, "result=") {
					t.Errorf("%q rep %d: the runtime wrote a marker into Reason %q", src, rep, d.Reason)
				}
			}
			// A result-cache hit skips the plan pipeline entirely: no
			// plan-cache marker. The miss carries the plan note as usual.
			if rep == 0 && got.Cache != "miss" {
				t.Errorf("%q rep 0: Cache = %q, want miss", src, got.Cache)
			}
			if rep > 0 && got.Cache != "" {
				t.Errorf("%q rep %d: result hit leaked a plan-cache note %q", src, rep, got.Cache)
			}
			if !reflect.DeepEqual(stripAll(want), stripAll(got)) {
				t.Errorf("%q rep %d (%s): diverged from result-cache-free pipeline\nwant %+v\ngot  %+v",
					src, rep, wantNote, stripAll(want), stripAll(got))
			}
		}
	}
	s := f.rt.Stats()
	if s.ResultCacheMisses != int64(len(cacheQueries)) || s.ResultCacheHits != 2*int64(len(cacheQueries)) {
		t.Errorf("stats = %d hits / %d misses, want %d / %d",
			s.ResultCacheHits, s.ResultCacheMisses, 2*len(cacheQueries), len(cacheQueries))
	}
	if ref.Stats().ResultCacheMisses != 0 || ref.Stats().ResultCacheHits != 0 {
		t.Errorf("disabled result cache moved counters: %+v", ref.Stats())
	}
}

// TestResultCacheHitSkipsAllWork pins the serving contract: an exact
// replay runs NO executor work, no probe, no prepare — the answer comes
// from memory. A same-template different-constant query is a result MISS
// that still enjoys the plan cache (one executor run, no probes).
func TestResultCacheHitSkipsAllWork(t *testing.T) {
	f, _ := resultRuntimes(t, 30000)
	const src = `SELECT COUNT(*) FROM sessions WHERE genre = 'western' ERROR WITHIN 25%`
	if _, err := answer(f.rt, parse(t, src)); err != nil {
		t.Fatal(err)
	}
	before := f.rt.Stats()
	resp, err := answer(f.rt, parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultCache != "hit" {
		t.Fatalf("exact replay: ResultCache = %q, want hit", resp.ResultCache)
	}
	after := f.rt.Stats()
	if after.PlanExecs != before.PlanExecs || after.ProbeExecs != before.ProbeExecs || after.Prepares != before.Prepares {
		t.Errorf("result hit did executor/probe/prepare work: %+v -> %+v", before, after)
	}

	// New constant, same template: result miss, plan hit, exactly one
	// executor run (the chosen view scan), zero probes.
	before = after
	resp, err = answer(f.rt, parse(t, `SELECT COUNT(*) FROM sessions WHERE genre = 'drama' ERROR WITHIN 25%`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultCache != "miss" || resp.Cache != "hit" {
		t.Fatalf("new constant: ResultCache = %q (want miss), Cache = %q (want hit)", resp.ResultCache, resp.Cache)
	}
	after = f.rt.Stats()
	if got := after.PlanExecs - before.PlanExecs; got != 1 {
		t.Errorf("new constant ran the executor %d times, want 1", got)
	}
	if after.ProbeExecs != before.ProbeExecs {
		t.Errorf("new constant re-probed: %d -> %d", before.ProbeExecs, after.ProbeExecs)
	}
}

// TestResultCacheEpochInvalidation: re-installing a sample family (what
// RefreshSamples and Maintain.Apply do) bumps the catalog version; a
// cached answer computed against the old samples must never be served,
// and every stale answer must go, not just the queried one.
func TestResultCacheEpochInvalidation(t *testing.T) {
	f, ref := resultRuntimes(t, 30000)
	const src = `SELECT COUNT(*) FROM sessions WHERE genre = 'western' ERROR WITHIN 25%`
	if _, err := answer(f.rt, parse(t, src)); err != nil {
		t.Fatal(err)
	}
	// A second warm answer that will NOT be re-queried: it must go with
	// its generation.
	if _, err := answer(f.rt, parse(t, `SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 25%`)); err != nil {
		t.Fatal(err)
	}
	if resp, _ := answer(f.rt, parse(t, src)); resp.ResultCache != "hit" {
		t.Fatalf("warm query should hit, got %q", resp.ResultCache)
	}
	if got := entries(f.rt.gen.Load().results); got != 2 {
		t.Fatalf("result cache holds %d entries before refresh, want 2", got)
	}

	entry, err := f.cat.Lookup("sessions")
	if err != nil {
		t.Fatal(err)
	}
	var cityFam *sample.Family
	for _, fam := range entry.Families {
		if fam.Phi.Key() == "city" {
			cityFam = fam
		}
	}
	fresh, err := sample.Build(f.tab, cityFam.Phi, cityFam.Caps,
		sample.BuildConfig{Seed: 99, Nodes: 100, Place: storage.InMemory, RowsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.cat.AddFamily("sessions", fresh); err != nil {
		t.Fatal(err)
	}

	got, err := answer(f.rt, parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if got.ResultCache != "miss" {
		t.Fatalf("post-refresh query served a stale answer: %q, want miss", got.ResultCache)
	}
	want, err := answer(ref, parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripAll(want), stripAll(got)) {
		t.Errorf("post-refresh answer diverged from the result-cache-free pipeline\nwant %+v\ngot  %+v",
			stripAll(want), stripAll(got))
	}
	// BOTH stale answers went with their generation; only the re-executed
	// one is resident.
	if got := entries(f.rt.gen.Load().results); got != 1 {
		t.Errorf("result cache holds %d entries after the refresh, want 1", got)
	}
}

// TestResultCacheSingleflight is the -race acceptance test: 8 goroutines
// missing ONE cold key must execute the pipeline exactly once — one
// prepare, one miss, executor work identical to a single serial cold run
// — and every goroutine receives an equal answer.
func TestResultCacheSingleflight(t *testing.T) {
	f, _ := resultRuntimes(t, 20000)
	// A twin fixture measures what ONE serial cold run costs in executor
	// invocations (same dataset: newFixture is deterministic).
	twin := newFixture(t, 20000, Options{PlanCacheSize: 64, ResultCacheSize: 64})
	const src = `SELECT AVG(time) FROM sessions WHERE genre = 'western' GROUP BY os ERROR WITHIN 25%`
	want, err := answer(twin.rt, parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	oneColdRun := twin.rt.Stats()

	const goroutines = 8
	responses := make([]*Response, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			responses[g], errs[g] = answer(f.rt, parse(t, src))
		}(g)
	}
	close(start)
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(stripAll(want), stripAll(responses[g])) {
			t.Errorf("goroutine %d: answer diverged from the serial cold run (marker %q)",
				g, responses[g].ResultCache)
		}
	}
	s := f.rt.Stats()
	if s.ResultCacheMisses != 1 {
		t.Errorf("ResultCacheMisses = %d, want 1 (one execution across %d concurrent callers)", s.ResultCacheMisses, goroutines)
	}
	if s.ResultCacheHits+s.ResultCacheShared != goroutines-1 {
		t.Errorf("hits+shared = %d+%d, want %d", s.ResultCacheHits, s.ResultCacheShared, goroutines-1)
	}
	if s.Prepares != 1 {
		t.Errorf("Prepares = %d, want 1", s.Prepares)
	}
	// The executor ran exactly as much as one serial cold run: the view
	// scan (and its probes) happened once, not once per goroutine.
	if s.PlanExecs != oneColdRun.PlanExecs || s.ProbeExecs != oneColdRun.ProbeExecs {
		t.Errorf("concurrent cold key did %d plan / %d probe execs, one serial run does %d / %d",
			s.PlanExecs, s.ProbeExecs, oneColdRun.PlanExecs, oneColdRun.ProbeExecs)
	}
}

// TestResultCacheWaiterReExecutes pins the two ways a request that meets
// a flight of its key must not take the flight's answer, through both
// sinks of the one run path:
//
//   - version-change: a request that began AFTER a catalog version change
//     runs in the new generation, whose flights are its own, so it never
//     joins a flight that started before the change;
//   - cancelled-leader: a leader cancelled mid-flight poisons the shared
//     error, but a waiter whose own context is live still owes an answer.
//
// A fake leader holds the flight open and would land a poisoned entry (or
// context.Canceled); a real Run or stream then asks for the same key.
// Either way its answer must be the fresh pipeline's, marked as its own
// miss; the streamed session must carry the very frames of a cold stream
// (the re-execution keeps the emitter), and its final must be bit-identical
// to Run's.
func TestResultCacheWaiterReExecutes(t *testing.T) {
	const src = `SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 5%`
	key, params := sqlparser.Normalize(parse(t, src))
	rkey := key + "\x1e" + sqlparser.ParamsKey(params)
	poisoned := &resultEntry{
		resp: &Response{
			Result:    &exec.Result{Groups: []exec.Group{{}}},
			Decisions: []Decision{{Reason: "poisoned flight"}},
			Cache:     "miss",
		},
	}
	cold, _ := resultRuntimes(t, 20000)
	coldFrames := collect(t, cold.rt, parse(t, src))
	if len(coldFrames) < 2 {
		t.Fatalf("the cold stream has %d frame(s); the matrix needs intermediates", len(coldFrames))
	}

	for _, branch := range []string{"version-change", "cancelled-leader"} {
		finals := map[string]*Response{}
		for _, sink := range []string{"run", "stream"} {
			f, ref := resultRuntimes(t, 20000)
			started := make(chan struct{})
			release := make(chan struct{})
			var leader sync.WaitGroup
			leader.Add(1)
			go func() { // fake leader holding the flight open
				defer leader.Done()
				f.rt.current().flights.Do(rkey, func() (*resultEntry, error) {
					close(started) // the flight is registered before fn runs
					<-release
					if branch == "cancelled-leader" {
						return nil, context.Canceled
					}
					return poisoned, nil
				})
			}()
			<-started
			name := branch + "/" + sink
			if branch == "version-change" {
				// Re-adding a family bumps the version and leaves the
				// answer where it was.
				entry, err := f.cat.Lookup("sessions")
				if err != nil {
					t.Fatal(err)
				}
				if err := f.cat.AddFamily("sessions", entry.Families[0]); err != nil {
					t.Fatal(err)
				}
			}

			tr := telemetry.New("waiter")
			var frames []refinement
			var resp *Response
			var err error
			done := make(chan struct{})
			go func() {
				defer close(done)
				if sink == "run" {
					resp, err = answerTraced(context.Background(), f.rt, parse(t, src), tr)
					return
				}
				err = streamQuery(context.Background(), f.rt, parse(t, src), tr, func(r refinement) error {
					frames = append(frames, r)
					return nil
				})
			}()
			if branch == "version-change" {
				// The request must finish while the old flight is open.
				select {
				case <-done:
				case <-time.After(time.Minute):
					t.Fatalf("%s: the request waited on a flight begun before the version change", name)
				}
			} else {
				time.Sleep(50 * time.Millisecond) // let the waiter join the flight
			}
			close(release)
			leader.Wait()
			<-done
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tr.Finish()
			var reexecuted []string
			tr.Walk(func(sp *telemetry.Span, _ int) {
				if strings.HasSuffix(sp.Name(), "re-execute") {
					reexecuted = append(reexecuted, sp.Name())
				}
			})
			wantReexecuted := []string{"cancelled-leader re-execute"}
			if branch == "version-change" {
				wantReexecuted = nil // it ran as its own flight's leader
			}
			if !reflect.DeepEqual(reexecuted, wantReexecuted) {
				t.Fatalf("%s: re-execute spans %q, want %q:\n%s", name, reexecuted, wantReexecuted, tr.Render())
			}
			if sink == "stream" {
				checkSession(t, frames)
				if !reflect.DeepEqual(frames, coldFrames) {
					t.Errorf("%s: the re-execution did not stream a cold session's frames: %d frames, want %d",
						name, len(frames), len(coldFrames))
				}
				resp = frames[len(frames)-1].Resp
			}
			if resp.ResultCache != "miss" {
				t.Errorf("%s: ResultCache = %q, want the waiter's own miss", name, resp.ResultCache)
			}
			want, err := answer(ref, parse(t, src))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripAll(want), stripAll(resp)) {
				t.Errorf("%s: answer diverged from the fresh pipeline\nwant %+v\ngot  %+v", name, stripAll(want), stripAll(resp))
			}
			if s := f.rt.Stats(); s.ResultCacheMisses != 1 || s.ResultCacheShared != 0 {
				t.Errorf("%s: misses=%d shared=%d, want one private execution", name, s.ResultCacheMisses, s.ResultCacheShared)
			}
			finals[sink] = resp
		}
		if !reflect.DeepEqual(finals["run"], finals["stream"]) {
			t.Errorf("%s: stream final diverges from Run\n run    %+v\n stream %+v", branch, finals["run"], finals["stream"])
		}
	}
}

// TestResultCacheSecondLeaderServesCachedAnswer pins the other half: a
// caller that missed the cache but lost the race to an already-landed
// flight (its Do call starts a NEW flight) must serve the cached answer
// from the leader re-check instead of re-executing the pipeline.
func TestResultCacheSecondLeaderServesCachedAnswer(t *testing.T) {
	f, _ := resultRuntimes(t, 20000)
	const src = `SELECT COUNT(*) FROM sessions WHERE genre = 'western' ERROR WITHIN 25%`
	q := parse(t, src)
	key, params := sqlparser.Normalize(q)
	rkey := key + "\x1e" + sqlparser.ParamsKey(params)
	if _, err := answer(f.rt, q); err != nil { // warms the cache
		t.Fatal(err)
	}
	before := f.rt.Stats()
	ent, cached, err := f.rt.resultLeader(context.Background(), f.rt.current(), q, key, params, rkey, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || ent == nil {
		t.Fatalf("second leader must serve the cached answer (cached=%v)", cached)
	}
	after := f.rt.Stats()
	if after.Prepares != before.Prepares || after.PlanExecs != before.PlanExecs ||
		after.ResultCacheMisses != before.ResultCacheMisses {
		t.Errorf("second leader re-executed: %+v -> %+v", before, after)
	}
}

// TestResultCacheConcurrentMixedKeysWithRefresh hammers several result
// keys from many goroutines while the catalog concurrently re-installs a
// family (version churn), under -race in CI: every answer — hit, miss or
// shared, before or after any version bump — must equal the serial
// reference (the refresh re-installs byte-identical family content, so
// pre- and post-refresh truths coincide).
func TestResultCacheConcurrentMixedKeysWithRefresh(t *testing.T) {
	f, ref := resultRuntimes(t, 20000)
	srcs := []string{
		`SELECT COUNT(*) FROM sessions WHERE genre = 'western' ERROR WITHIN 25%`,
		`SELECT AVG(time) FROM sessions WHERE genre = 'western' GROUP BY os ERROR WITHIN 25% LIMIT 2`,
		`SELECT AVG(time), MEDIAN(time) FROM sessions GROUP BY city WITHIN 2 SECONDS`,
	}
	wants := make([]*Response, len(srcs))
	for i, src := range srcs {
		w, err := answer(ref, parse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = stripAll(w)
	}
	entry, err := f.cat.Lookup("sessions")
	if err != nil {
		t.Fatal(err)
	}
	var cityFam *sample.Family
	for _, fam := range entry.Families {
		if fam.Phi.Key() == "city" {
			cityFam = fam
		}
	}

	const goroutines = 8
	var queriers, refresher sync.WaitGroup
	errs := make(chan error, goroutines*15+1)
	stop := make(chan struct{})
	refresher.Add(1)
	go func() {
		defer refresher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.cat.AddFamily("sessions", cityFam); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		queriers.Add(1)
		go func(g int) {
			defer queriers.Done()
			for i := 0; i < 15; i++ {
				k := (i + g) % len(srcs)
				resp, err := answer(f.rt, parse(t, srcs[k]))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !reflect.DeepEqual(wants[k], stripAll(resp)) {
					errs <- fmt.Errorf("goroutine %d iter %d (%s/%s): diverged from serial reference",
						g, i, resp.Cache, resp.ResultCache)
					return
				}
			}
		}(g)
	}
	queriers.Wait()
	close(stop)
	refresher.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
