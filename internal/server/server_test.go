package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"blinkdb"
	"blinkdb/internal/admission"
	"blinkdb/internal/sqlparser"
)

// demoEngine mirrors the root package's fixture: a skewed sessions table
// with city/os-stratified samples, deterministic per seed so two engines
// built with the same arguments answer bit-identically.
func demoEngine(t testing.TB, rows int) *blinkdb.Engine {
	t.Helper()
	eng := blinkdb.Open(blinkdb.Config{Scale: 1e4, Seed: 7, CacheTables: true})
	load := eng.CreateTable("sessions",
		blinkdb.Col("city", blinkdb.String),
		blinkdb.Col("os", blinkdb.String),
		blinkdb.Col("sessiontime", blinkdb.Float),
	)
	rng := rand.New(rand.NewSource(3))
	cities := []string{"NY", "SF", "LA", "Austin", "Boise", "Fargo"}
	weights := []float64{0.5, 0.25, 0.15, 0.06, 0.03, 0.01}
	oses := []string{"Win7", "OSX", "Linux"}
	pick := func() string {
		u := rng.Float64()
		for i, w := range weights {
			u -= w
			if u <= 0 {
				return cities[i]
			}
		}
		return cities[len(cities)-1]
	}
	for i := 0; i < rows; i++ {
		if err := load.Append(pick(), oses[rng.Intn(3)], rng.ExpFloat64()*100); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateSamples("sessions", blinkdb.SampleOptions{
		BudgetFraction: 0.5,
		K:              2000,
		Templates: []blinkdb.Template{
			{Columns: []string{"city"}, Weight: 0.7},
			{Columns: []string{"os"}, Weight: 0.3},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return eng
}

const boundedSQL = `SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 5% AT CONFIDENCE 95%`

func postQuery(t *testing.T, srv *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// TestSingleQueryJSON pins the non-streaming path: one final frame whose
// result matches library mode on a twin engine byte for byte.
func TestSingleQueryJSON(t *testing.T) {
	eng := demoEngine(t, 20000)
	twin := demoEngine(t, 20000)
	srv := New(eng, Config{})
	w := postQuery(t, srv, fmt.Sprintf(`{"sql": %q}`, boundedSQL))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var f frame
	if err := json.Unmarshal(w.Body.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if !f.Final || f.Seq != 0 || f.Result == nil {
		t.Fatalf("single answer must be one final frame: %+v", f)
	}
	want, err := twin.Query(boundedSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Result, toResultJSON(want)) {
		t.Fatalf("server answer diverges from library mode:\n got %+v\nwant %+v", f.Result, toResultJSON(want))
	}
	if m := srv.Metrics().Snapshot(); m.Admitted != 1 || m.Shed != 0 {
		t.Fatalf("admission counters: %+v", m)
	}
}

// TestStreamNDJSON pins the streaming path: at least one frame, strictly
// increasing seq, exactly one final frame (the last), non-increasing
// predicted bounds, and a final result bit-identical to library mode on
// a twin engine.
func TestStreamNDJSON(t *testing.T) {
	eng := demoEngine(t, 20000)
	twin := demoEngine(t, 20000)
	srv := New(eng, Config{})
	w := postQuery(t, srv, fmt.Sprintf(`{"sql": %q, "stream": true}`, boundedSQL))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var frames []frame
	sc := bufio.NewScanner(w.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var f frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
	}
	if len(frames) == 0 {
		t.Fatal("no frames")
	}
	for i, f := range frames {
		if f.Seq != i {
			t.Fatalf("frame %d has seq %d", i, f.Seq)
		}
		if f.Final != (i == len(frames)-1) {
			t.Fatalf("final flag misplaced at frame %d of %d", i, len(frames))
		}
		if f.Error != "" {
			t.Fatalf("frame %d carries error %q", i, f.Error)
		}
		if i > 0 && f.Result.PredictedBound > frames[i-1].Result.PredictedBound {
			t.Fatalf("predicted bound widened between frames %d and %d: %v -> %v",
				i-1, i, frames[i-1].Result.PredictedBound, f.Result.PredictedBound)
		}
	}
	want, err := twin.Query(boundedSQL)
	if err != nil {
		t.Fatal(err)
	}
	final := frames[len(frames)-1]
	if !reflect.DeepEqual(final.Result, toResultJSON(want)) {
		t.Fatalf("streamed final diverges from library mode:\n got %+v\nwant %+v", final.Result, toResultJSON(want))
	}
}

// TestStreamSSE pins the event-stream encoding: data:-prefixed frames
// separated by blank lines.
func TestStreamSSE(t *testing.T) {
	eng := demoEngine(t, 20000)
	srv := New(eng, Config{})
	req := httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(fmt.Sprintf(`{"sql": %q, "stream": true}`, boundedSQL)))
	req.Header.Set("Accept", "text/event-stream")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if ct := w.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	body := w.Body.String()
	if !strings.HasPrefix(body, "data: ") {
		t.Fatalf("SSE body must start with data:, got %q", body[:min(len(body), 40)])
	}
	var finals int
	for _, chunk := range strings.Split(body, "\n\n") {
		chunk = strings.TrimSpace(chunk)
		if chunk == "" {
			continue
		}
		var f frame
		if err := json.Unmarshal([]byte(strings.TrimPrefix(chunk, "data: ")), &f); err != nil {
			t.Fatalf("bad SSE event %q: %v", chunk, err)
		}
		if f.Final {
			finals++
		}
	}
	if finals != 1 {
		t.Fatalf("want exactly one final event, got %d", finals)
	}
}

// TestShedBeforeScanning pins the admission contract: with the slot and
// queue full, a burst is rejected with 429 + Retry-After and the engine
// never plans or scans for it (PlanExecs pinned, Shed counted).
func TestShedBeforeScanning(t *testing.T) {
	eng := demoEngine(t, 20000)
	srv := New(eng, Config{Admission: admission.Config{
		MaxConcurrent: 1, MaxQueue: 1, MaxBacklogSeconds: -1,
	}})
	// Occupy the slot and the queue directly; HTTP arrivals now shed.
	hold, err := srv.adm.Admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release()
	queuedCtx, cancelQueued := context.WithCancel(context.Background())
	defer cancelQueued()
	queued := make(chan error, 1)
	go func() {
		tk, err := srv.adm.Admit(queuedCtx, 1)
		if tk != nil {
			tk.Release()
		}
		queued <- err
	}()
	for i := 0; srv.adm.Snapshot().Queued != 1; i++ {
		if i > 5000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	before, metBefore := eng.Stats(), srv.Metrics().Snapshot()
	w := postQuery(t, srv, fmt.Sprintf(`{"sql": %q}`, boundedSQL))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q", w.Header().Get("Retry-After"))
	}
	after, metAfter := eng.Stats(), srv.Metrics().Snapshot()
	if metAfter.Shed != metBefore.Shed+1 {
		t.Fatalf("shed counter: before %d after %d", metBefore.Shed, metAfter.Shed)
	}
	if after.PlanExecs != before.PlanExecs || after.Prepares != before.Prepares {
		t.Fatalf("a shed query must not plan or scan: %+v vs %+v", before, after)
	}
	cancelQueued()
	<-queued
}

// TestBoundParams pins per-request bound binding: parameters append
// clauses, conflicts with in-SQL bounds are 400s.
func TestBoundParams(t *testing.T) {
	eng := demoEngine(t, 20000)
	srv := New(eng, Config{})
	w := postQuery(t, srv,
		`{"sql": "SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY'", "error": "10%", "confidence": "95%", "time_seconds": 2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var f frame
	if err := json.Unmarshal(w.Body.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.Result == nil || !strings.Contains(f.Result.Explanation, "resolution") {
		t.Fatalf("bounded query should answer from a sample: %+v", f.Result)
	}
	if len(f.Result.Rows) == 0 || f.Result.Rows[0].Cells[0].Bound <= 0 {
		t.Fatalf("bounded answer must carry an error bar: %+v", f.Result)
	}

	w = postQuery(t, srv, fmt.Sprintf(`{"sql": %q, "error": "10%%"}`, boundedSQL))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("conflicting error param must 400, got %d: %s", w.Code, w.Body.String())
	}
	w = postQuery(t, srv, `{"sql": "SELECT COUNT(*) FROM sessions WITHIN 2 SECONDS", "time_seconds": 1}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("conflicting time param must 400, got %d: %s", w.Code, w.Body.String())
	}
	w = postQuery(t, srv, `{"sql": "SELECT COUNT(*) FROM sessions", "confidence": "95%"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("confidence without error must 400, got %d", w.Code)
	}
}

// TestOutOfDomainBoundsRefused: a bound outside its domain — in the SQL or
// in a request parameter — is a 400, never an answer computed as if the
// bound were absent, clamped or truncated.
func TestOutOfDomainBoundsRefused(t *testing.T) {
	srv := New(demoEngine(t, 5000), Config{})
	const bare = `SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY'`
	for _, body := range []string{
		fmt.Sprintf(`{"sql": %q, "error": "0%%"}`, bare),
		fmt.Sprintf(`{"sql": %q, "error": "0"}`, bare),
		fmt.Sprintf(`{"sql": %q, "error": "-0"}`, bare),
		fmt.Sprintf(`{"sql": %q, "error": "5%%", "confidence": "0"}`, bare),
		fmt.Sprintf(`{"sql": %q, "error": "5%%", "confidence": "0%%"}`, bare),
		fmt.Sprintf(`{"sql": %q, "error": "5%%", "confidence": "100%%"}`, bare),
		fmt.Sprintf(`{"sql": %q, "error": "5%%", "confidence": "150"}`, bare),
		fmt.Sprintf(`{"sql": %q, "error": "5%%", "confidence": "150%%"}`, bare),
		fmt.Sprintf(`{"sql": %q, "time_seconds": -1}`, bare),
		fmt.Sprintf(`{"sql": %q}`, bare+` ERROR WITHIN 0%`),
		fmt.Sprintf(`{"sql": %q}`, bare+` ERROR WITHIN 5% AT CONFIDENCE 150%`),
		fmt.Sprintf(`{"sql": %q}`, bare+` WITHIN -1 SECONDS`),
		fmt.Sprintf(`{"sql": %q}`, bare+` LIMIT 0`),
		fmt.Sprintf(`{"sql": %q}`, bare+` LIMIT 2.5`),
	} {
		if w := postQuery(t, srv, body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", body, w.Code, w.Body.String())
		}
	}
	body := fmt.Sprintf(`{"sql": %q, "error": "0.5%%", "confidence": "99.9%%"}`, bare)
	if w := postQuery(t, srv, body); w.Code != http.StatusOK {
		t.Errorf("%s: status %d, want 200: %s", body, w.Code, w.Body.String())
	}
}

// TestGetQueryParams pins the GET form of /query.
func TestGetQueryParams(t *testing.T) {
	eng := demoEngine(t, 20000)
	srv := New(eng, Config{})
	params := url.Values{"sql": {boundedSQL}, "stream": {"1"}}
	req := httptest.NewRequest(http.MethodGet, "/query?"+params.Encode(), nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), `"final":true`) {
		t.Fatalf("stream must end with a final frame: %s", w.Body.String())
	}
	// A time bound the SQL grammar cannot express is refused.
	for _, bad := range []string{"NaN", "Inf", "+Inf", "-Inf"} {
		params := url.Values{"sql": {`SELECT COUNT(*) FROM sessions`}, "time": {bad}}
		req := httptest.NewRequest(http.MethodGet, "/query?"+params.Encode(), nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "bad time parameter") {
			t.Fatalf("time=%s: status %d: %s", bad, w.Code, w.Body.String())
		}
	}
}

// TestHealthzAndStats pins the sidecar endpoints.
func TestHealthzAndStats(t *testing.T) {
	eng := demoEngine(t, 20000)
	srv := New(eng, Config{})
	if w := postQuery(t, srv, fmt.Sprintf(`{"sql": %q}`, boundedSQL)); w.Code != http.StatusOK {
		t.Fatalf("warm query failed: %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz: %d %s", w.Code, w.Body.String())
	}
	req = httptest.NewRequest(http.MethodGet, "/stats", nil)
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var stats struct {
		Server struct {
			Admitted int64 `json:"Admitted"`
		} `json:"server"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Server.Admitted < 1 {
		t.Fatalf("stats must report admissions: %s", w.Body.String())
	}
}

// TestWarmingGate: a server constructed warming refuses queries and
// reports 503 "warming" from /healthz until SetReady; after the flip
// both endpoints behave normally.
func TestWarmingGate(t *testing.T) {
	eng := demoEngine(t, 20000)
	srv := New(eng, Config{Warming: true})

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "warming") {
		t.Fatalf("warming healthz: %d %s", w.Code, w.Body.String())
	}
	if w := postQuery(t, srv, fmt.Sprintf(`{"sql": %q}`, boundedSQL)); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("warming query: %d, want 503", w.Code)
	} else if w.Header().Get("Retry-After") == "" {
		t.Fatal("warming query rejection must carry Retry-After")
	}

	srv.SetReady()
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("ready healthz: %d %s", w.Code, w.Body.String())
	}
	if w := postQuery(t, srv, fmt.Sprintf(`{"sql": %q}`, boundedSQL)); w.Code != http.StatusOK {
		t.Fatalf("ready query: %d %s", w.Code, w.Body.String())
	}
}

// TestAdmissionPricedByEstimate pins what a request costs the backlog:
// with the one seat held at cost 1, a request queues at the engine's cost
// estimate for its template (floored at 1 ms) once the engine has
// observed it, and at defaultCostSeconds before.
func TestAdmissionPricedByEstimate(t *testing.T) {
	eng := demoEngine(t, 20000)
	seen := `SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY'`
	if _, err := eng.Query(seen); err != nil {
		t.Fatal(err)
	}
	q, err := sqlparser.Parse(seen)
	if err != nil {
		t.Fatal(err)
	}
	est, ok := eng.TemplateWallSeconds(blinkdb.NewStatement(q, time.Now()).Key)
	if !ok {
		t.Fatal("the engine answered the query but has no cost estimate for it")
	}
	for _, tc := range []struct {
		sql  string
		cost float64
	}{
		{seen, math.Max(est, 1e-3)},
		{`SELECT COUNT(*) FROM sessions WHERE os = 'OSX'`, defaultCostSeconds},
	} {
		srv := New(eng, Config{Admission: admission.Config{
			MaxConcurrent: 1, MaxQueue: 4, MaxBacklogSeconds: -1,
		}})
		hold, err := srv.adm.Admit(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			req := httptest.NewRequest(http.MethodPost, "/query",
				strings.NewReader(fmt.Sprintf(`{"sql": %q}`, tc.sql))).WithContext(ctx)
			srv.ServeHTTP(httptest.NewRecorder(), req)
		}()
		for i := 0; srv.adm.Snapshot().Queued != 1; i++ {
			if i > 5000 {
				t.Fatalf("%q never queued", tc.sql)
			}
			time.Sleep(time.Millisecond)
		}
		if got, want := srv.adm.Snapshot().BacklogSeconds, 1+tc.cost; got != want {
			t.Errorf("%q queued at backlog %v, want %v", tc.sql, got, want)
		}
		cancel()
		<-done
		hold.Release()
	}
}

// TestGracefulDrain pins SIGTERM semantics at the http.Server level: an
// in-flight query completes while Shutdown waits, and the listener stops
// accepting afterwards.
func TestGracefulDrain(t *testing.T) {
	eng := demoEngine(t, 20000)
	srv := New(eng, Config{})
	hs := httptest.NewServer(srv)
	started := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		close(started)
		resp, err := http.Post(hs.URL+"/query", "application/json",
			strings.NewReader(fmt.Sprintf(`{"sql": %q, "stream": true}`, boundedSQL)))
		if err != nil {
			result <- err
			return
		}
		defer resp.Body.Close()
		body := new(strings.Builder)
		if _, err := fmt.Fprint(body, readAll(resp)); err != nil {
			result <- err
			return
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(body.String(), `"final":true`) {
			result <- fmt.Errorf("draining request broken: %d %s", resp.StatusCode, body.String())
			return
		}
		result <- nil
	}()
	<-started
	// Close drains like Shutdown for httptest servers: it blocks until
	// outstanding requests finish.
	time.Sleep(10 * time.Millisecond)
	hs.Close()
	if err := <-result; err != nil {
		t.Fatal(err)
	}
}

func readAll(resp *http.Response) string {
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestHitKeepsRequestAliases pins what the template key leaves out:
// aliases rename output columns without being part of the cache key, so
// a hit must carry the names of the request it answers — not those of
// whichever request filled the entry or built its served form.
func TestHitKeepsRequestAliases(t *testing.T) {
	eng := demoEngine(t, 20000)
	srv := New(eng, Config{})
	const tmpl = `SELECT AVG(sessiontime) AS %s FROM sessions WHERE city = 'NY' ERROR WITHIN 5%%`
	overHTTP := func(alias string) *resultJSON {
		t.Helper()
		w := postQuery(t, srv, fmt.Sprintf(`{"sql": %q}`, fmt.Sprintf(tmpl, alias)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		var f frame
		if err := json.Unmarshal(w.Body.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		return f.Result
	}
	if res := overHTTP("a"); res.ResultCache != "miss" || res.Rows[0].Cells[0].Name != "a" {
		t.Fatalf("first answer: %+v", res)
	}
	// b's hit builds the served form; a's is then the mismatch, b's the
	// cached bytes.
	for _, alias := range []string{"b", "a", "b"} {
		if res := overHTTP(alias); res.ResultCache != "hit" || res.Rows[0].Cells[0].Name != alias {
			t.Fatalf("hit for AS %s is result=%s with cells named %q", alias, res.ResultCache, res.Rows[0].Cells[0].Name)
		}
	}
	for _, alias := range []string{"c", "b"} {
		res, err := eng.Query(fmt.Sprintf(tmpl, alias))
		if err != nil {
			t.Fatal(err)
		}
		if res.ResultCache != "hit" || res.Rows[0].Cells[0].Name != alias {
			t.Fatalf("in-process hit for AS %s is result=%s with cells named %q", alias, res.ResultCache, res.Rows[0].Cells[0].Name)
		}
	}
	// EXPLAIN ANALYZE rides the same entry and keeps its trace to itself.
	res, err := eng.Query("EXPLAIN ANALYZE " + fmt.Sprintf(tmpl, "b"))
	if err != nil || res.ResultCache != "hit" || res.Trace == "" {
		t.Fatalf("analyzed hit: %+v, %v", res, err)
	}
	if res, _ := eng.Query(fmt.Sprintf(tmpl, "b")); res.Trace != "" {
		t.Fatalf("an analyzed hit left its trace in the served form:\n%s", res.Trace)
	}
}

// TestBodyLimit: a POST body past maxBodyBytes is refused with 413 and
// the usual error object before it reaches admission — so the
// conservation identity (arrivals = admitted + shed + queue-cancelled)
// never sees it — and the client's next request is served.
func TestBodyLimit(t *testing.T) {
	eng := demoEngine(t, 20000)
	srv := New(eng, Config{})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := hs.Client().Post(hs.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, readAll(resp)
	}
	huge := fmt.Sprintf(`{"sql": %q, "pad": %q}`, boundedSQL, strings.Repeat("x", 2<<20))
	status, body := post(huge)
	var e map[string]string
	if status != http.StatusRequestEntityTooLarge || json.Unmarshal([]byte(body), &e) != nil || e["error"] == "" {
		t.Fatalf("2 MiB body: status %d, body %.200s", status, body)
	}
	if s, m := eng.Stats(), srv.Metrics().Snapshot(); s.Cancelled != 0 || m.Admitted+m.Shed+m.QueueCancelled != 0 {
		t.Fatalf("a refused body reached admission: engine %+v, server %+v", s, m)
	}
	if status, body := post(fmt.Sprintf(`{"sql": %q}`, boundedSQL)); status != http.StatusOK {
		t.Fatalf("request after the refusal: status %d, body %.200s", status, body)
	}
	if m := srv.Metrics().Snapshot(); m.Admitted != 1 {
		t.Fatalf("admitted %d, want 1", m.Admitted)
	}
}
