package elp

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"blinkdb/internal/cpu"
	"blinkdb/internal/exec"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/telemetry"
)

// refinement is one answer of a streaming session: each refinement Run
// emits, then the final answer it returns.
type refinement struct {
	Resp *Response
	// Level is the sample resolution that produced it (max across
	// disjuncts; -1 = base table).
	Level int
	// Seq numbers the session's answers from 0.
	Seq   int
	Final bool
}

// streamQuery runs q as a streaming session, handing emit each refinement
// in order and then the final answer. An emit error aborts the session and
// is returned.
func streamQuery(ctx context.Context, rt *Runtime, q *sqlparser.Query, tr *telemetry.Trace, emit func(refinement) error) error {
	seq := 0
	final, err := runQuery(ctx, rt, q, tr, func(resp *Response, level int) error {
		seq++
		return emit(refinement{Resp: resp, Level: level, Seq: seq - 1})
	})
	if err != nil {
		return err
	}
	return emit(refinement{Resp: final, Level: responseLevel(final), Seq: seq, Final: true})
}

// responseLevel is the resolution a response was served at: the max level
// across its decisions, -1 when any disjunct used the base table.
func responseLevel(resp *Response) int {
	level := 0
	for _, d := range resp.Decisions {
		if d.UsedBase {
			return -1
		}
		if d.View.Level > level {
			level = d.View.Level
		}
	}
	return level
}

// collect runs q as a streaming session and returns every refinement.
func collect(t *testing.T, rt *Runtime, q *sqlparser.Query) []refinement {
	t.Helper()
	return collectTraced(t, rt, q, nil)
}

// collectTraced is collect recording into tr (nil: untraced).
func collectTraced(t *testing.T, rt *Runtime, q *sqlparser.Query, tr *telemetry.Trace) []refinement {
	t.Helper()
	var refs []refinement
	if err := streamQuery(context.Background(), rt, q, tr, func(r refinement) error {
		refs = append(refs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("stream emitted no refinements")
	}
	return refs
}

// checkSession validates the frame invariants every session must hold:
// contiguous sequence numbers, exactly one final refinement, and it last.
func checkSession(t *testing.T, refs []refinement) {
	t.Helper()
	finals := 0
	for i, r := range refs {
		if r.Seq != i {
			t.Errorf("refinement %d has Seq %d", i, r.Seq)
		}
		if r.Resp == nil {
			t.Fatalf("refinement %d has nil response", i)
		}
		if r.Final {
			finals++
			if i != len(refs)-1 {
				t.Errorf("final refinement at position %d of %d", i, len(refs))
			}
		}
	}
	if finals != 1 {
		t.Errorf("session emitted %d final refinements, want exactly 1", finals)
	}
}

// TestStreamFinalBitIdentical is the equivalence matrix: for every query
// shape the final streamed response must be DeepEqual — latencies, cache
// markers, explanations included — to what the non-streaming Run returns
// on a twin runtime (newFixture is deterministic, so twins agree).
func TestStreamFinalBitIdentical(t *testing.T) {
	templates := []struct {
		name string
		src  string
		join bool
	}{
		{"bounded-avg", `SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 5%`, false},
		{"bounded-groupby", `SELECT AVG(time) FROM sessions GROUP BY os ERROR WITHIN 10%`, false},
		{"bounded-limit", `SELECT COUNT(*) FROM sessions GROUP BY city ERROR WITHIN 10% LIMIT 3`, false},
		{"time-bounded", `SELECT AVG(time) FROM sessions WHERE os = 'OSX' WITHIN 0.5 SECONDS`, false},
		{"exact-stratum", `SELECT AVG(time) FROM sessions WHERE city = 'city1'`, false},
		{"bounded-join", `SELECT AVG(time) FROM sessions JOIN vendors ON os = os WHERE vendor = 'Apple' ERROR WITHIN 10%`, true},
	}
	build := func(join bool) *fixture {
		if join {
			return joinFixture(t, 20000, Options{})
		}
		return newFixture(t, 20000, Options{})
	}
	for _, tc := range templates {
		t.Run(tc.name, func(t *testing.T) {
			forKernels(t, func(t *testing.T) {
				stream, serial := build(tc.join), build(tc.join)
				want, err := answer(serial.rt, parse(t, tc.src))
				if err != nil {
					t.Fatal(err)
				}
				refs := collect(t, stream.rt, parse(t, tc.src))
				checkSession(t, refs)
				final := refs[len(refs)-1]
				if !reflect.DeepEqual(final.Resp, want) {
					t.Errorf("final streamed response diverges from Run:\n got %+v\nwant %+v", final.Resp, want)
				}
				if want := responseLevel(final.Resp); final.Level != want {
					t.Errorf("final Level = %d, want %d", final.Level, want)
				}
			})
		})
	}
}

// forKernels runs f once per kernel set: the AVX2 kernels, skipped where
// this CPU has none, and the Go kernels forced. No test in this package
// runs in parallel, so flipping cpu.AVX2 races nothing.
func forKernels(t *testing.T, f func(t *testing.T)) {
	host := cpu.AVX2
	for _, avx2 := range []bool{true, false} {
		name := "generic"
		if avx2 {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			if avx2 && !host {
				t.Skip("this CPU has no AVX2 kernels")
			}
			cpu.AVX2 = avx2
			defer func() { cpu.AVX2 = host }()
			f(t)
		})
	}
}

// TestStreamRefinementChain pins the heart of the feature: a selective
// tightly-bounded query answers first at the probe resolution, then walks
// the §4.4 delta chain — strictly increasing levels, non-increasing
// predicted bounds, non-decreasing simulated latency — before the final.
func TestStreamRefinementChain(t *testing.T) {
	f := newFixture(t, 20000, Options{})
	refs := collect(t, f.rt, parse(t,
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 5%`))
	checkSession(t, refs)
	if len(refs) < 2 {
		t.Fatalf("want at least one intermediate refinement before the final, got %d frame(s)", len(refs))
	}
	for i := 1; i < len(refs); i++ {
		prev, cur := refs[i-1], refs[i]
		if cur.Level <= prev.Level {
			t.Errorf("levels must strictly increase along the chain: %d then %d", prev.Level, cur.Level)
		}
		pb, cb := prev.Resp.Decisions[0].PredictedBound, cur.Resp.Decisions[0].PredictedBound
		if cb > pb {
			t.Errorf("predicted bound grew from %g to %g at refinement %d", pb, cb, i)
		}
		if cur.Resp.SimLatency < prev.Resp.SimLatency {
			t.Errorf("cumulative latency shrank from %g to %g at refinement %d",
				prev.Resp.SimLatency, cur.Resp.SimLatency, i)
		}
	}
	// Every intermediate is a complete well-formed answer near the truth.
	truth := f.truth["city1"]
	for i, r := range refs {
		est := r.Resp.Result.Groups[0].Estimates[0]
		if math.Abs(est.Point-truth)/truth > 0.5 {
			t.Errorf("refinement %d estimate %.2f wildly off truth %.2f", i, est.Point, truth)
		}
		if !r.Final && !strings.Contains(r.Resp.Decisions[0].Reason, "streaming refinement") {
			t.Errorf("intermediate %d not marked as a streaming refinement: %q", i, r.Resp.Decisions[0].Reason)
		}
	}
}

// TestStreamResultCacheHitSingleFinal: a warmed result cache answers a
// streaming session with exactly one final refinement — no scans, no
// intermediate frames, annotation "hit".
func TestStreamResultCacheHitSingleFinal(t *testing.T) {
	f, _ := resultRuntimes(t, 20000)
	q := `SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 5%`
	if _, err := answer(f.rt, parse(t, q)); err != nil {
		t.Fatal(err)
	}
	before := f.rt.Stats()
	refs := collect(t, f.rt, parse(t, q))
	checkSession(t, refs)
	if len(refs) != 1 {
		t.Fatalf("cache hit streamed %d refinements, want exactly 1 final", len(refs))
	}
	if rc := refs[0].Resp.ResultCache; rc != "hit" {
		t.Errorf("ResultCache = %q, want \"hit\"", rc)
	}
	after := f.rt.Stats()
	if after.PlanExecs != before.PlanExecs {
		t.Errorf("cache-hit stream ran the executor: PlanExecs %d -> %d", before.PlanExecs, after.PlanExecs)
	}
	if after.ResultCacheHits != before.ResultCacheHits+1 {
		t.Errorf("ResultCacheHits %d -> %d, want +1", before.ResultCacheHits, after.ResultCacheHits)
	}
}

// TestStreamStampede: 8 concurrent streaming sessions over one cold key
// execute once. The singleflight leader streams its refinements; waiters
// each get exactly one shared final, bit-identical (modulo cache markers)
// to a serial cold run.
func TestStreamStampede(t *testing.T) {
	f, _ := resultRuntimes(t, 20000)
	twin := newFixture(t, 20000, Options{PlanCacheSize: 64, ResultCacheSize: 64})
	const src = `SELECT AVG(time) FROM sessions WHERE genre = 'western' GROUP BY os ERROR WITHIN 25%`
	twinRefs := collect(t, twin.rt, parse(t, src))
	want := twinRefs[len(twinRefs)-1].Resp
	oneColdRun := twin.rt.Stats()

	const goroutines = 8
	sessions := make([][]refinement, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			errs[g] = streamQuery(context.Background(), f.rt, parse(t, src), nil, func(r refinement) error {
				sessions[g] = append(sessions[g], r)
				return nil
			})
		}(g)
	}
	close(start)
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("session %d: %v", g, errs[g])
		}
		checkSession(t, sessions[g])
		final := sessions[g][len(sessions[g])-1]
		if !reflect.DeepEqual(stripAll(want), stripAll(final.Resp)) {
			t.Errorf("session %d final diverged from the serial cold run (marker %q)",
				g, final.Resp.ResultCache)
		}
		// Only the leader may stream intermediates; hit/shared sessions
		// degrade to one final frame.
		if rc := final.Resp.ResultCache; rc != "miss" && len(sessions[g]) != 1 {
			t.Errorf("session %d (%q) streamed %d frames, want 1", g, rc, len(sessions[g]))
		}
	}
	s := f.rt.Stats()
	if s.ResultCacheMisses != 1 {
		t.Errorf("ResultCacheMisses = %d, want 1 (one execution across %d sessions)", s.ResultCacheMisses, goroutines)
	}
	if s.PlanExecs != oneColdRun.PlanExecs || s.ProbeExecs != oneColdRun.ProbeExecs {
		t.Errorf("stampede did %d plan / %d probe execs; one serial cold streaming run does %d / %d",
			s.PlanExecs, s.ProbeExecs, oneColdRun.PlanExecs, oneColdRun.ProbeExecs)
	}
}

// TestStreamDoesNotPerturbNonStreaming: running streaming sessions leaves
// a subsequent non-streaming Run bit-identical to a runtime that never
// streamed (shared memo, no recorded levels from intermediates).
func TestStreamDoesNotPerturbNonStreaming(t *testing.T) {
	mixed := newFixture(t, 20000, Options{})
	pure := newFixture(t, 20000, Options{})
	const src = `SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 5%`
	collect(t, mixed.rt, parse(t, src))
	got, err := answer(mixed.rt, parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := answer(pure.rt, parse(t, src)); err != nil {
		t.Fatal(err)
	}
	want, err := answer(pure.rt, parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a prior streaming session perturbed the non-streaming answer")
	}
	// Intermediates never count toward AnswersByLevel — only finals do.
	ms, ps := mixed.rt.Stats(), pure.rt.Stats()
	if !reflect.DeepEqual(ms.AnswersByLevel, ps.AnswersByLevel) {
		t.Errorf("AnswersByLevel diverged: streaming %v vs pure %v", ms.AnswersByLevel, ps.AnswersByLevel)
	}
}

// TestStreamSpanOrdering: the trace proves the first answer lands before
// the final — "refinement 0" starts (and ends) before "refinement final"
// starts.
func TestStreamSpanOrdering(t *testing.T) {
	f := newFixture(t, 20000, Options{})
	tr := telemetry.New("stream")
	err := streamQuery(context.Background(), f.rt, parse(t,
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 5%`), tr,
		func(refinement) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	var first, final *telemetry.Span
	tr.Walk(func(s *telemetry.Span, _ int) {
		switch s.Name() {
		case "refinement 0":
			first = s
		case "refinement final":
			final = s
		}
	})
	if first == nil || final == nil {
		t.Fatalf("trace missing refinement spans:\n%s", tr.Render())
	}
	if !first.Start().Before(final.Start()) {
		t.Errorf("refinement 0 (start %v) did not precede the final (start %v)",
			first.Start(), final.Start())
	}
	if gotLevel := first.Notes(); len(gotLevel) == 0 || !strings.HasPrefix(gotLevel[0], "level=") {
		t.Errorf("refinement span notes = %v, want level=N", gotLevel)
	}
}

// TestStreamCancelBetweenRefinements: an emit callback that cancels the
// context stops the session before the final scan, and the error is the
// context's.
func TestStreamCancelBetweenRefinements(t *testing.T) {
	f := newFixture(t, 20000, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []refinement
	err := streamQuery(ctx, f.rt, parse(t,
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 5%`), nil,
		func(r refinement) error {
			got = append(got, r)
			cancel()
			return nil
		})
	if err == nil {
		t.Fatal("cancelled session returned nil error")
	}
	if !isCancellation(err) {
		t.Fatalf("err = %v, want a cancellation", err)
	}
	for _, r := range got {
		if r.Final {
			t.Error("cancelled session still delivered a final refinement")
		}
	}
	s := f.rt.Stats()
	if s.Cancelled == 0 {
		t.Error("Cancelled counter not bumped")
	}
}

// TestStreamAlreadyCancelled: a dead context returns before any work.
func TestStreamAlreadyCancelled(t *testing.T) {
	f := newFixture(t, 5000, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := streamQuery(ctx, f.rt, parse(t, `SELECT COUNT(*) FROM sessions ERROR WITHIN 10%`), nil,
		func(refinement) error {
			t.Error("emit called despite dead context")
			return nil
		})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	s := f.rt.Stats()
	if s.PlanExecs != 0 || s.Prepares != 0 {
		t.Errorf("dead context still did work: PlanExecs=%d Prepares=%d", s.PlanExecs, s.Prepares)
	}
	if s.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", s.Cancelled)
	}
}

// scannedBlocks sums the blocks of every scan span of tr under spans named
// with prefix.
func scannedBlocks(t *testing.T, tr *telemetry.Trace, prefix string) int {
	t.Helper()
	total := 0
	var walk func(s *telemetry.Span, under bool)
	walk = func(s *telemetry.Span, under bool) {
		under = under || strings.HasPrefix(s.Name(), prefix)
		var n int
		if _, err := fmt.Sscanf(s.Name(), "scan blocks=%d", &n); err == nil && under {
			total += n
		}
		for _, c := range s.Children() {
			walk(c, under)
		}
	}
	walk(tr.Root(), false)
	return total
}

// TestSessionReadsEachDeltaOnce: a streaming session folds one delta per
// refinement into one chain. With Prepare's own parameters the probe's
// levels are never read again — the refinements and the final together
// scan exactly the blocks the final level adds to the probe's — and with
// other parameters (a plan-cache hit) exactly the final level's blocks,
// each once; either way the final answer is the non-streaming Run's, on
// both kernel sets.
func TestSessionReadsEachDeltaOnce(t *testing.T) {
	const src = `SELECT AVG(time) FROM sessions WHERE city = 'city%d' ERROR WITHIN 5%%`
	forKernels(t, func(t *testing.T) {
		f := newFixture(t, 20000, Options{PlanCacheSize: 8})
		serial := newFixture(t, 20000, Options{PlanCacheSize: 8})
		for i, city := range []int{1, 2} {
			q := fmt.Sprintf(src, city)
			tr := telemetry.New("stream")
			var refs []refinement
			if err := streamQuery(context.Background(), f.rt, parse(t, q), tr, func(r refinement) error {
				refs = append(refs, r)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			tr.Finish()
			want, err := answer(serial.rt, parse(t, q))
			if err != nil {
				t.Fatal(err)
			}
			final := refs[len(refs)-1]
			if len(refs) < 3 || !reflect.DeepEqual(final.Resp, want) {
				t.Fatalf("%q: %d refinements; final %+v, Run %+v", q, len(refs), final.Resp, want)
			}
			pd := preparedDisjunct(t, f.rt, parse(t, q))
			plan, err := exec.Compile(parse(t, q), f.tab.Schema)
			if err != nil {
				t.Fatal(err)
			}
			view := pd.fam.View(final.Level)
			wantBlocks := len(plan.Prune(view.Blocks()))
			if i == 0 { // the session that prepared: Prepare's parameters
				wantBlocks = len(plan.Prune(view.DeltaBlocks(pd.pv)))
			}
			if got := scannedBlocks(t, tr, "refinement"); got != wantBlocks {
				t.Fatalf("%q: the session scanned %d blocks, want %d (levels %d..%d, prepared=%v)",
					q, got, wantBlocks, pd.pv.Level, final.Level, i == 0)
			}
		}
	})
}

// preparedDisjunct returns the plan-cache entry's one disjunct for q.
func preparedDisjunct(t *testing.T, rt *Runtime, q *sqlparser.Query) *prepDisjunct {
	t.Helper()
	key, _ := sqlparser.Normalize(q)
	pq, ok := rt.gen.Load().plans.Get(key)
	if !ok || len(pq.disjuncts) != 1 {
		t.Fatalf("%s is not prepared with one disjunct", key)
	}
	return pq.disjuncts[0]
}
