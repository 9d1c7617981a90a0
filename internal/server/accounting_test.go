package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"blinkdb/internal/admission"
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

// TestReleaseExcludesClientDrainTime pins that a slow streaming consumer
// cannot inflate a template's cost estimate: the engine's telemetry clock
// pauses while each refinement drains to the client, so the estimate
// admission prices by — and the template's recorded latency — stay below
// even half of one throttled write. When the clock ran through the
// drains, both carried the two intermediate writes (about 0.3s).
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
	tmpls := eng.Telemetry().Templates
	if len(tmpls) != 1 {
		t.Fatalf("want one observed template, got %d", len(tmpls))
	}
	key := tmpls[0].Key
	learned, ok := eng.TemplateWallSeconds(key)
	if !ok {
		t.Fatal("a completed stream left no cost estimate")
	}
	half := (perWrite / 2).Seconds()
	if learned >= half {
		t.Fatalf("cost estimate %.3fs ≥ %.3fs: drain time leaked into it (handler wall %.3fs)", learned, half, wall)
	}
	if lat := tmpls[0].Latency.Max; lat >= half {
		t.Fatalf("recorded latency %.3fs ≥ %.3fs: drain time leaked into it (handler wall %.3fs)", lat, half, wall)
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
	hold, err := srv.adm.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release()

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

// scripted is one request of a scripted client: giveUp > 0 abandons it
// after that long.
type scripted struct {
	sql    string
	stream bool
	giveUp time.Duration
}

// send posts each request from its own goroutine, all at once, and
// returns a wait that counts their outcomes: "served" (a 200 whose last
// line is a final frame with a result and no error), "shed" (429),
// "cancelled" (the client gave up first) or "errored" (anything else).
func send(base string, reqs ...scripted) (wait func() map[string]int) {
	outs := make(chan string, len(reqs))
	for _, r := range reqs {
		go func() { outs <- sendScripted(base, r) }()
	}
	return func() map[string]int {
		counts := map[string]int{}
		for range reqs {
			counts[<-outs]++
		}
		return counts
	}
}

func sendScripted(base string, r scripted) string {
	ctx := context.Background()
	if r.giveUp > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.giveUp)
		defer cancel()
	}
	body := fmt.Sprintf(`{"sql": %q, "stream": %v}`, r.sql, r.stream)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/query", strings.NewReader(body))
	if err != nil {
		return "errored"
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return "cancelled"
		}
		return "errored"
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return "shed"
	case err != nil && ctx.Err() != nil:
		return "cancelled"
	case err != nil || resp.StatusCode != http.StatusOK:
		return "errored"
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var f struct {
		Final  bool      `json:"final"`
		Error  string    `json:"error"`
		Result *struct{} `json:"result"`
	}
	if json.Unmarshal(lines[len(lines)-1], &f) != nil || !f.Final || f.Error != "" || f.Result == nil {
		return "errored"
	}
	return "served"
}

// TestAdmissionConservation drives the serving path over real HTTP in three
// scripted phases against one held slot and a two-place queue: two
// impatient requests queue and give up while the slot is held, three more
// find the queue full and are shed, and after the release three patient
// ones are served. Every arrival must land in exactly one of the server's
// admitted, shed and queue-cancelled ledgers: nothing vanishes, and each
// ledger is exercised.
func TestAdmissionConservation(t *testing.T) {
	eng := demoEngine(t, 20000)
	srv := New(eng, Config{Admission: admission.Config{
		MaxConcurrent: 1, MaxQueue: 2, MaxBacklogSeconds: -1,
	}})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	const osSQL = "SELECT AVG(sessiontime) FROM sessions WHERE os = 'OSX'"

	hold, err := srv.adm.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	impatient := send(hs.URL,
		scripted{sql: osSQL, giveUp: time.Second},
		scripted{sql: boundedSQL, stream: true, giveUp: time.Second})
	waitQueued(t, srv, 2)
	full := send(hs.URL,
		scripted{sql: osSQL}, scripted{sql: boundedSQL, stream: true}, scripted{sql: boundedSQL})
	phases := []map[string]int{impatient(), full()}
	waitQueued(t, srv, 0) // the abandoned handlers have left the queue
	hold.Release()
	phases = append(phases, send(hs.URL,
		scripted{sql: osSQL, stream: true}, scripted{sql: boundedSQL}, scripted{sql: boundedSQL, stream: true})())

	wants := []map[string]int{{"cancelled": 2}, {"shed": 3}, {"served": 3}}
	if !reflect.DeepEqual(phases, wants) {
		t.Fatalf("client outcomes by phase %v, want %v", phases, wants)
	}

	// Handlers for abandoned requests may still be unwinding; poll until
	// the server-side ledger balances against the 8 arrivals.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		snap := srv.met.Snapshot()
		if snap.Admitted+snap.Shed+snap.QueueCancelled == 8 {
			if snap.Admitted != 3 || snap.Shed != 3 || snap.QueueCancelled != 2 {
				t.Fatalf("admitted %d, shed %d, queue-cancelled %d; want 3, 3, 2",
					snap.Admitted, snap.Shed, snap.QueueCancelled)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("conservation violated: admitted %d + shed %d + queue-cancelled %d != 8 arrivals",
				snap.Admitted, snap.Shed, snap.QueueCancelled)
		}
	}
}

// waitQueued waits until n requests wait in srv's admission queue.
func waitQueued(t *testing.T, srv *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); srv.adm.Snapshot().Queued != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("admission queue holds %d, want %d", srv.adm.Snapshot().Queued, n)
		}
	}
}
