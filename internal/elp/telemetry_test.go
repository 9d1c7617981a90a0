package elp

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"blinkdb/internal/telemetry"
)

// collectSpans flattens a trace into name → []*Span.
func collectSpans(tr *telemetry.Trace) map[string][]*telemetry.Span {
	out := map[string][]*telemetry.Span{}
	tr.Walk(func(s *telemetry.Span, depth int) {
		out[s.Name()] = append(out[s.Name()], s)
	})
	return out
}

func spanWithPrefix(spans map[string][]*telemetry.Span, prefix string) *telemetry.Span {
	for name, ss := range spans {
		if strings.HasPrefix(name, prefix) {
			return ss[0]
		}
	}
	return nil
}

func hasNote(s *telemetry.Span, note string) bool {
	if s == nil {
		return false
	}
	for _, n := range s.Notes() {
		if n == note {
			return true
		}
	}
	return false
}

// TestTraceSpanStructure runs one bounded query cold and once warm and
// checks the span topology of each phase: the cold pass walks
// normalize → result-cache lookup → execute → plan-cache lookup →
// prepare (probes) → bind+scan (scan → merge), while the warm pass
// short-circuits at the result-cache lookup.
func TestTraceSpanStructure(t *testing.T) {
	f := newFixture(t, 20000, Options{PlanCacheSize: 8, ResultCacheSize: 8})
	q := parse(t, `SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 10% AT CONFIDENCE 95%`)

	cold := telemetry.New("query")
	if _, err := answerTraced(context.Background(), f.rt, q, cold); err != nil {
		t.Fatal(err)
	}
	cold.Finish()
	spans := collectSpans(cold)
	for _, want := range []string{"normalize", "result-cache lookup", "execute", "plan-cache lookup", "prepare", "bind+scan", "merge"} {
		if len(spans[want]) == 0 {
			t.Errorf("cold trace missing span %q; trace:\n%s", want, cold.Render())
		}
	}
	if s := spanWithPrefix(spans, "probe "); s == nil {
		t.Errorf("cold trace has no probe span; trace:\n%s", cold.Render())
	}
	if s := spanWithPrefix(spans, "scan blocks="); s == nil {
		t.Errorf("cold trace has no scan span; trace:\n%s", cold.Render())
	}
	if !hasNote(spans["plan-cache lookup"][0], "cache=miss") {
		t.Errorf("cold plan-cache lookup should note cache=miss; trace:\n%s", cold.Render())
	}
	if !hasNote(spans["execute"][0], "result=miss") {
		t.Errorf("cold execute should note result=miss; trace:\n%s", cold.Render())
	}

	warm := telemetry.New("query")
	if _, err := answerTraced(context.Background(), f.rt, q, warm); err != nil {
		t.Fatal(err)
	}
	warm.Finish()
	wspans := collectSpans(warm)
	if !hasNote(wspans["result-cache lookup"][0], "result=hit") {
		t.Errorf("warm result-cache lookup should note result=hit; trace:\n%s", warm.Render())
	}
	if len(wspans["prepare"]) != 0 || spanWithPrefix(wspans, "scan blocks=") != nil {
		t.Errorf("warm hit should not prepare or scan; trace:\n%s", warm.Render())
	}
	if len(wspans["materialize"]) == 0 {
		t.Errorf("warm hit should be read under the caller's materialize span; trace:\n%s", warm.Render())
	}
}

// TestPlanCacheHitTrace checks the middle path: a fresh constant misses
// the result cache but hits the plan cache (no probes, no prepare).
func TestPlanCacheHitTrace(t *testing.T) {
	f := newFixture(t, 20000, Options{PlanCacheSize: 8, ResultCacheSize: 8})
	if _, err := answer(f.rt, parse(t, `SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 10%`)); err != nil {
		t.Fatal(err)
	}
	tr := telemetry.New("query")
	if _, err := answerTraced(context.Background(), f.rt, parse(t, `SELECT AVG(time) FROM sessions WHERE city = 'city2' ERROR WITHIN 10%`), tr); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	spans := collectSpans(tr)
	if !hasNote(spans["plan-cache lookup"][0], "cache=hit") {
		t.Errorf("fresh constant should hit the plan cache; trace:\n%s", tr.Render())
	}
	if len(spans["prepare"]) != 0 {
		t.Errorf("plan-cache hit should skip prepare; trace:\n%s", tr.Render())
	}
	if spanWithPrefix(spans, "scan blocks=") == nil {
		t.Errorf("result-cache miss must still scan; trace:\n%s", tr.Render())
	}
}

// TestTelemetryOnOffBitIdentical replays the same query sequence through
// two identically-built runtimes, one traced on every query, one not, and
// requires deeply equal responses — including SimLatency — on every query.
// This is the disabled-path guarantee: tracing a query never changes its
// answer.
func TestTelemetryOnOffBitIdentical(t *testing.T) {
	on := newFixture(t, 15000, Options{PlanCacheSize: 8, ResultCacheSize: 8})
	off := newFixture(t, 15000, Options{PlanCacheSize: 8, ResultCacheSize: 8})

	queries := []string{
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 10%`,
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 10%`, // result-cache hit
		`SELECT AVG(time) FROM sessions WHERE city = 'city2' ERROR WITHIN 10%`, // plan-cache hit
		`SELECT COUNT(*) FROM sessions`,                                        // exact
		`SELECT SUM(time) FROM sessions WHERE os = 'OSX' AND url = 'cnn.com' ERROR WITHIN 15%`,
	}
	for _, src := range queries {
		tr := telemetry.New("query")
		a, err := answerTraced(context.Background(), on.rt, parse(t, src), tr)
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		b, err := answer(off.rt, parse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("tracing changed the answer for %q:\n on: %+v\noff: %+v", src, a, b)
		}
		if len(tr.Root().Children()) == 0 {
			t.Errorf("traced run of %q recorded no spans", src)
		}
	}
}

// TestPredictedBoundDecision pins the Decision-level projection: positive
// for a sampled bounded answer, zero for exact execution, and roughly in
// the neighbourhood of the half-width the scan actually reported (the
// 1/√n extrapolation from a probe is crude, so only the order of
// magnitude is pinned).
func TestPredictedBoundDecision(t *testing.T) {
	f := newFixture(t, 20000, Options{})
	resp, err := answer(f.rt, parse(t, `SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 10%`))
	if err != nil {
		t.Fatal(err)
	}
	d := resp.Decisions[0]
	if d.UsedBase {
		t.Skip("fixture answered from base table; no projection to test")
	}
	if d.PredictedBound <= 0 {
		t.Fatalf("sampled bounded answer should have PredictedBound > 0, got %g", d.PredictedBound)
	}
	obs := resp.Result.MaxAbsErr()
	if obs > 0 && (d.PredictedBound > obs*100 || d.PredictedBound < obs/100) {
		t.Errorf("predicted bound %g wildly off observed %g", d.PredictedBound, obs)
	}

	exact, err := answer(f.rt, parse(t, `SELECT COUNT(*) FROM sessions`))
	if err != nil {
		t.Fatal(err)
	}
	if got := exact.Decisions[0].PredictedBound; got != 0 {
		t.Errorf("exact execution should have PredictedBound 0, got %g", got)
	}
}

// TestStatsDelta pins the windowed counter arithmetic.
func TestStatsDelta(t *testing.T) {
	f := newFixture(t, 15000, Options{PlanCacheSize: 8, ResultCacheSize: 8})
	q := `SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 10%`
	if _, err := answer(f.rt, parse(t, q)); err != nil {
		t.Fatal(err)
	}
	base := f.rt.Stats()
	for i := 0; i < 3; i++ {
		if _, err := answer(f.rt, parse(t, q)); err != nil {
			t.Fatal(err)
		}
	}
	d := f.rt.Stats().Delta(base)
	if d.ResultCacheHits != 3 {
		t.Errorf("delta window should hold exactly the 3 replay hits, got %d", d.ResultCacheHits)
	}
	if d.ResultCacheMisses != 0 || d.PlanCacheMisses != 0 || d.Prepares != 0 {
		t.Errorf("delta window should be all-hit: %+v", d)
	}
	if len(d.AnswersByLevel) != 0 {
		t.Errorf("result-cache hits execute nothing, so no level counts expected: %+v", d.AnswersByLevel)
	}

	// A fresh constant executes (plan-cache hit, result-cache miss): its
	// window must carry exactly one level count.
	base = f.rt.Stats()
	if _, err := answer(f.rt, parse(t, `SELECT AVG(time) FROM sessions WHERE city = 'city2' ERROR WITHIN 10%`)); err != nil {
		t.Fatal(err)
	}
	d = f.rt.Stats().Delta(base)
	var levelSum int64
	for _, n := range d.AnswersByLevel {
		levelSum += n
	}
	if levelSum != 1 {
		t.Errorf("executing window should record one served level, got %+v", d.AnswersByLevel)
	}
	if d.ResultCacheMisses != 1 || d.PlanCacheHits != 1 {
		t.Errorf("fresh constant should be result miss + plan hit: %+v", d)
	}
}

// TestStatsSnapshotConsistent hammers Run and Stats concurrently and
// checks each snapshot for internal consistency: with a replayed single
// template, result-cache outcomes can never exceed total queries, and
// every snapshot's outcome sum must be reachable (no torn half-updated
// pairs where hits were read after a query that the misses column missed).
func TestStatsSnapshotConsistent(t *testing.T) {
	f := newFixture(t, 10000, Options{PlanCacheSize: 8, ResultCacheSize: 8})
	q := `SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 10%`
	const queries = 60

	var runners, reader sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		runners.Add(1)
		go func() {
			defer runners.Done()
			for i := 0; i < queries; i++ {
				if _, err := answer(f.rt, parse(t, q)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := f.rt.Stats()
			total := s.ResultCacheHits + s.ResultCacheMisses + s.ResultCacheShared
			if total > 2*queries {
				t.Errorf("snapshot outcome sum %d exceeds total queries %d", total, 2*queries)
				return
			}
		}
	}()
	runners.Wait()
	close(stop)
	reader.Wait()

	s := f.rt.Stats()
	if got := s.ResultCacheHits + s.ResultCacheMisses + s.ResultCacheShared; got != 2*queries {
		t.Errorf("final outcome sum %d, want %d", got, 2*queries)
	}
}
