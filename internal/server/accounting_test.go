package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blinkdb/internal/admission"
	"blinkdb/internal/loadgen"
)

// slowWriter throttles every response write, imitating a streaming
// client that drains NDJSON frames slowly. Deliberately NOT an
// http.Flusher: each frame still passes through Write, where the delay
// lives.
type slowWriter struct {
	http.ResponseWriter
	perWrite time.Duration
}

func (s *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(s.perWrite)
	return s.ResponseWriter.Write(p)
}

// TestReleaseExcludesClientDrainTime pins the compute-side Release
// contract: a slow streaming consumer must not inflate the admission
// EWMA. Pre-fix, Release was charged the full handler wall time
// (including per-frame drain sleeps), so the learned cost tracked the
// client's read speed instead of the engine's.
func TestReleaseExcludesClientDrainTime(t *testing.T) {
	eng := demoEngine(t, 20000)
	srv := New(eng, Config{})

	const perWrite = 150 * time.Millisecond
	req := httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(fmt.Sprintf(`{"sql": %q, "stream": true}`, boundedSQL)))
	w := &slowWriter{ResponseWriter: httptest.NewRecorder(), perWrite: perWrite}
	begin := time.Now()
	srv.ServeHTTP(w, req)
	wall := time.Since(begin).Seconds()

	if wall < perWrite.Seconds() {
		t.Fatalf("handler wall %.3fs: the slow writer never throttled anything", wall)
	}
	ewma := srv.ExportAdmissionEWMA()
	if len(ewma) != 1 {
		t.Fatalf("want one learned template, got %v", ewma)
	}
	var learned float64
	for _, v := range ewma {
		learned = v
	}
	if learned <= 0 {
		t.Fatalf("completed stream must teach the cost model, got %v", ewma)
	}
	// At least one throttled frame means ≥ perWrite of pure drain time;
	// compute-side accounting must have excluded it. The pre-fix code
	// (Release with wall-from-grant) fails here by ~the full drain time.
	if learned > wall-0.1 {
		t.Fatalf("EWMA %.3fs is within 100ms of handler wall %.3fs: drain time leaked into the cost model", learned, wall)
	}
}

// stuckWriter blocks the Write of a request's final frame until release
// is closed, imitating a client that stops reading a large reply: entered
// is closed when that Write begins.
type stuckWriter struct {
	http.ResponseWriter
	entered, release chan struct{}
}

func (s *stuckWriter) Write(p []byte) (int, error) {
	if strings.Contains(string(p), `"final":true`) {
		close(s.entered)
		<-s.release
	}
	return s.ResponseWriter.Write(p)
}

// TestSeatFreedBeforeWrite pins that the admission seat covers compute
// only: with one seat, a request whose client stops reading its final
// frame must not hold the seat, so a second request is answered while the
// first is still blocked in Write. Holding the ticket until the reply was
// written queued the second request behind the stuck client.
func TestSeatFreedBeforeWrite(t *testing.T) {
	eng := demoEngine(t, 20000)
	for _, stream := range []bool{false, true} {
		t.Run(fmt.Sprintf("stream=%v", stream), func(t *testing.T) {
			srv := New(eng, Config{Admission: admission.Config{
				MaxConcurrent: 1, MaxQueue: 4, MaxBacklogSeconds: -1,
			}})
			body := fmt.Sprintf(`{"sql": %q, "stream": %v}`, boundedSQL, stream)
			stuck := &stuckWriter{ResponseWriter: httptest.NewRecorder(), entered: make(chan struct{}), release: make(chan struct{})}
			first := make(chan struct{})
			go func() {
				defer close(first)
				srv.ServeHTTP(stuck, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
			}()
			defer func() { <-first }()
			defer close(stuck.release)
			select {
			case <-stuck.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("request 1 never wrote its final frame")
			}

			second := make(chan *httptest.ResponseRecorder, 1)
			go func() {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
				second <- rec
			}()
			select {
			case rec := <-second:
				if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"final":true`) {
					t.Fatalf("request 2: status %d, body %q", rec.Code, rec.Body.String())
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("request 2 not answered while request 1 is blocked in Write: admission %+v", srv.adm.Snapshot())
			}
		})
	}
}

// TestQueueCancelAccounted pins conservation for queued-then-gone
// clients: a request cancelled while waiting for admission must be
// counted in the server's QueueCancelled — pre-fix it vanished from every
// ledger — and nowhere else: it never reached the engine, whose Cancelled
// counts only queries it was asked to answer.
func TestQueueCancelAccounted(t *testing.T) {
	eng := demoEngine(t, 20000)
	srv := New(eng, Config{Admission: admission.Config{
		MaxConcurrent: 1, MaxQueue: 4, MaxBacklogSeconds: -1,
	}})
	// Occupy the only slot so the HTTP arrival queues.
	hold, err := srv.adm.Admit(context.Background(), "hold", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release(0)

	before := eng.Stats()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest(http.MethodPost, "/query",
			strings.NewReader(fmt.Sprintf(`{"sql": %q}`, boundedSQL))).WithContext(ctx)
		srv.ServeHTTP(httptest.NewRecorder(), req)
	}()
	for i := 0; srv.adm.Snapshot().Queued != 1; i++ {
		if i > 5000 {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done

	if after := eng.Stats(); after.Cancelled != before.Cancelled || after.Prepares != before.Prepares {
		t.Fatalf("a request cancelled in the queue reached the engine: %+v -> %+v", before, after)
	}
	snap := srv.met.Snapshot()
	if snap.QueueCancelled != 1 {
		t.Fatalf("server QueueCancelled = %d, want 1", snap.QueueCancelled)
	}
	if snap.Admitted != 0 || snap.Shed != 0 {
		t.Fatalf("admitted/shed must stay 0: %+v", snap)
	}
}

// TestRetryAfterSecondsCeil pins the header rounding: Retry-After must
// round UP (1.9s → 2) and never emit the illegal 0.
func TestRetryAfterSecondsCeil(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Nanosecond, 1},
		{900 * time.Millisecond, 1},
		{time.Second, 1},
		{time.Second + time.Nanosecond, 2},
		{1900 * time.Millisecond, 2},
		{2 * time.Second, 2},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestLoadgenConservation drives the serving path with a heterogeneous
// loadgen mix — patient and impatient cohorts against one slot — and
// asserts the accounting identity the queue-cancel fix makes possible:
// every arrival that reached admission is admitted, shed, or
// queue-cancelled. Nothing vanishes.
func TestLoadgenConservation(t *testing.T) {
	eng := demoEngine(t, 20000)
	srv := New(eng, Config{Admission: admission.Config{
		MaxConcurrent: 1, MaxQueue: 2, MaxBacklogSeconds: -1,
	}})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	spec := loadgen.Spec{
		Seed:     1234,
		Duration: 1500 * time.Millisecond,
		Cohorts: []loadgen.Cohort{
			{
				Name:    "steady",
				Clients: 4, RateQPS: 30, RateSkew: 1.2,
				Arrival: loadgen.Poisson,
				Templates: []loadgen.Template{{
					Pattern:     "SELECT AVG(sessiontime) FROM sessions WHERE city = 'c%d'",
					Cardinality: 6, Skew: 1.3, Weight: 1,
				}},
				Bounds:         []loadgen.Bound{{ErrorPct: 10, Confidence: 95, Weight: 1}},
				StreamFraction: 0.3,
			},
			{
				Name:    "impatient",
				Clients: 2, RateQPS: 20,
				Arrival: loadgen.Gamma, Burstiness: 4,
				Templates: []loadgen.Template{{
					Pattern:     "SELECT AVG(sessiontime) FROM sessions WHERE os = 'o%d'",
					Cardinality: 3, Weight: 1,
				}},
				GiveUpSeconds: 0.2,
			},
		},
	}
	tr := loadgen.Generate(spec)
	if len(tr.Requests) == 0 {
		t.Fatal("empty trace")
	}

	// Hold the slot for the first part of the run so queues build, sheds
	// fire, and impatient clients abandon while queued.
	hold, err := srv.adm.Admit(context.Background(), "hold", 1)
	if err != nil {
		t.Fatal(err)
	}
	release := time.AfterFunc(400*time.Millisecond, func() { hold.Release(0) })
	defer release.Stop()

	rep, err := loadgen.Run(tr, hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errored != 0 {
		t.Fatalf("unexpected request errors: %+v", rep)
	}
	if rep.Served == 0 {
		t.Fatalf("nothing served: %+v", rep)
	}

	// Handlers for abandoned requests may still be unwinding; poll until
	// the server-side ledger balances against dispatched arrivals.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := srv.met.Snapshot()
		if snap.Admitted+snap.Shed+snap.QueueCancelled == int64(rep.Arrivals) {
			if rep.Cancelled > 0 && snap.QueueCancelled == 0 {
				t.Logf("note: all %d client cancels hit running queries, none while queued", rep.Cancelled)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("conservation violated: admitted %d + shed %d + queueCancelled %d != arrivals %d",
				snap.Admitted, snap.Shed, snap.QueueCancelled, rep.Arrivals)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
