package blinkdb

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// TestQueryCtxAlreadyCancelled pins the serving contract a disconnected
// client relies on: a dead context returns promptly with ctx.Err() and
// zero scanning — no prepare, no executor invocation, no answer counted.
func TestQueryCtxAlreadyCancelled(t *testing.T) {
	eng := demoEngine(t, 20000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eng.QueryCtx(ctx,
		`SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 5% AT CONFIDENCE 95%`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled query still produced a result (RowsScanned=%d)", res.RowsScanned)
	}
	s := eng.Stats()
	if s.PlanExecs != 0 || s.Prepares != 0 {
		t.Errorf("cancelled query scanned: PlanExecs=%d Prepares=%d, want 0/0", s.PlanExecs, s.Prepares)
	}
	if s.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", s.Cancelled)
	}
	if len(s.AnswersByLevel) != 0 {
		t.Errorf("cancelled query counted as an answer: %v", s.AnswersByLevel)
	}
}

// TestQueryCtxCancelMidSession cancels from inside a streaming session's
// emit callback — deterministic "client disconnects mid-query": the
// session stops before its final scan and reports the cancellation.
func TestQueryCtxCancelMidSession(t *testing.T) {
	eng := demoEngine(t, 20000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sawFinal := false
	err := eng.QueryStream(ctx,
		`SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 5% AT CONFIDENCE 95%`,
		func(u StreamUpdate) error {
			if u.Final {
				sawFinal = true
			}
			cancel()
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sawFinal {
		t.Error("cancelled session still delivered a final update")
	}
	if s := eng.Stats(); s.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", s.Cancelled)
	}
}

// TestQueryCtxConcurrentCancelRaceClean races queries against immediate
// cancellation: every outcome must be either a complete answer or a clean
// cancellation error — never a torn result — and the books must balance
// (answers + cancellations = queries, an answer being an execution, a
// result-cache hit or a share of another query's flight: a scan that fits
// one range outruns the cancel, and the other racers reuse its answer).
// Run under -race in CI.
func TestQueryCtxConcurrentCancelRaceClean(t *testing.T) {
	eng := demoEngine(t, 20000)
	const queries = 16
	var wg sync.WaitGroup
	results := make([]*Result, queries)
	errs := make([]error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			if i%2 == 0 {
				cancel() // half die before the call, half race it
			} else {
				go cancel()
			}
			defer cancel()
			results[i], errs[i] = eng.QueryCtx(ctx,
				`SELECT AVG(sessiontime) FROM sessions GROUP BY os ERROR WITHIN 10%`)
		}(i)
	}
	wg.Wait()
	completed := 0
	for i := 0; i < queries; i++ {
		switch {
		case errs[i] == nil:
			completed++
			if results[i] == nil || len(results[i].Rows) == 0 {
				t.Errorf("query %d: nil error but empty result", i)
			}
		case errors.Is(errs[i], context.Canceled):
			if results[i] != nil {
				t.Errorf("query %d: cancellation error but non-nil result", i)
			}
		default:
			t.Errorf("query %d: unexpected error %v", i, errs[i])
		}
	}
	s := eng.Stats()
	var answers int64
	for _, n := range s.AnswersByLevel {
		answers += n
	}
	if served := answers + s.ResultCacheHits + s.ResultCacheShared; served != int64(completed) {
		t.Errorf("%d executed + %d result-cache hits + %d shared, but %d queries completed",
			answers, s.ResultCacheHits, s.ResultCacheShared, completed)
	}
	if s.Cancelled != int64(queries-completed) {
		t.Errorf("Cancelled = %d, want %d", s.Cancelled, queries-completed)
	}
}

// TestQueryStreamFinalMatchesQuery pins the public streaming contract:
// the Final update is bit-identical — latencies, cache markers,
// explanations — to Engine.Query on a twin engine (demoEngine is
// deterministic per seed).
func TestQueryStreamFinalMatchesQuery(t *testing.T) {
	stream, serial := demoEngine(t, 20000), demoEngine(t, 20000)
	const sql = `SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 5% AT CONFIDENCE 95%`
	want, err := serial.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	var updates []StreamUpdate
	if err := stream.QueryStream(context.Background(), sql, func(u StreamUpdate) error {
		updates = append(updates, u)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(updates) == 0 {
		t.Fatal("no updates")
	}
	for i, u := range updates {
		if u.Seq != i || u.Final != (i == len(updates)-1) {
			t.Errorf("malformed update sequence at %d: seq=%d final=%v", i, u.Seq, u.Final)
		}
	}
	final := updates[len(updates)-1]
	if !reflect.DeepEqual(final.Result, want) {
		t.Errorf("final update diverges from Query:\n got %+v\nwant %+v", final.Result, want)
	}
	if final.Result.Level != final.Level {
		t.Errorf("Result.Level %d != update Level %d", final.Result.Level, final.Level)
	}
}
