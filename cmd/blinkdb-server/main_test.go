package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"blinkdb"
	"blinkdb/internal/loadgen"
	"blinkdb/internal/server"
)

// The end-to-end tests: the server on a loopback port over real HTTP,
// held to library mode on a twin engine and to its own answers across a
// restart.

// boundedSQL is the query every test streams or replays.
const boundedSQL = `SELECT AVG(sessiontimems) FROM sessions WHERE city = 'city001' ERROR WITHIN 5% AT CONFIDENCE 95%`

// testOptions are the command's flag defaults over a 30,000-row table.
func testOptions(t *testing.T) options {
	t.Helper()
	o, err := parseFlags(flag.NewFlagSet("blinkdb-server", flag.ContinueOnError), []string{"-rows", "30000"})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// buildEngine opens, loads, samples and restores: everything the serving
// path does, synchronously.
func buildEngine(t *testing.T, o options) *blinkdb.Engine {
	t.Helper()
	eng := openEngine(o)
	if err := warmEngine(eng, nil, o); err != nil {
		eng.Close()
		t.Fatal(err)
	}
	return eng
}

// serve runs h behind the production http.Server on a loopback port until
// the test ends, and returns its base URL and the server.
func serve(t *testing.T, h http.Handler) (string, *http.Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := httpServer(h, readHeaderTimeout)
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return "http://" + ln.Addr().String(), hs
}

// TestServeStreamsLibraryAnswer: /healthz holds "warming" until SetReady,
// a streamed bounded query refines at least once before a final frame
// equal to library mode's answer on a twin engine, and /stats counts the
// admission.
func TestServeStreamsLibraryAnswer(t *testing.T) {
	o := testOptions(t)
	eng := buildEngine(t, o)
	defer eng.Close()
	srv := server.New(eng, server.Config{Warming: true, Admission: admissionConfig(o)})
	base, _ := serve(t, srv)

	if status := healthz(t, base); status != "warming" {
		t.Fatalf("healthz while warming: %q (want warming)", status)
	}
	srv.SetReady()
	if status := healthz(t, base); status != "ok" {
		t.Fatalf("healthz when ready: %q (want ok)", status)
	}

	frames := streamFrames(t, base, boundedSQL)
	if len(frames) < 2 {
		t.Fatalf("want at least one refinement before the final answer, got %d frame(s)", len(frames))
	}
	for i, f := range frames {
		if f.Error != "" {
			t.Fatalf("frame %d carries error %q", i, f.Error)
		}
		if f.Seq != i || f.Final != (i == len(frames)-1) || f.Result == nil {
			t.Fatalf("malformed frame sequence at %d: %+v", i, f)
		}
	}

	// The final frame must match library mode on a twin engine built with
	// the same arguments (floats survive the JSON round trip exactly).
	twin := buildEngine(t, o)
	defer twin.Close()
	want, err := twin.Query(boundedSQL)
	if err != nil {
		t.Fatal(err)
	}
	diffFinalFrame(t, frames[len(frames)-1].Result, want)

	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Server struct {
			Admitted int64 `json:"Admitted"`
		} `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Server.Admitted < 1 {
		t.Fatal("stats report no admissions")
	}
	t.Logf("%d frames, final matches library mode", len(frames))
}

// TestSlowHeadersClosed is the slowloris check: a connection that sends a
// request line and one header and then nothing — never the blank line
// that ends them — must be closed by the server once the header timeout
// runs out, not held until the client gives up. It runs the production
// server constructor with a header timeout short enough to wait out, and
// then requires an honest request on the same listener to be served.
func TestSlowHeadersClosed(t *testing.T) {
	o := testOptions(t)
	eng := buildEngine(t, o)
	defer eng.Close()
	srv := server.New(eng, server.Config{Admission: admissionConfig(o)})

	const headerTimeout = 250 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := httpServer(srv, headerTimeout)
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /query HTTP/1.1\r\nHost: slowloris\r\n")); err != nil {
		t.Fatal(err)
	}
	began := time.Now()
	patience := 20 * headerTimeout // a client far more patient than the server
	if err := conn.SetReadDeadline(began.Add(patience)); err != nil {
		t.Fatal(err)
	}
	// The server owes an unfinished request nothing but the close: read to
	// EOF, whatever (if anything) it says first.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("slow-header connection still open after %v (header timeout %v): %v", patience, headerTimeout, err)
	}
	held := time.Since(began)
	if held < headerTimeout/2 {
		t.Fatalf("slow-header connection closed after %v, before the %v header timeout could have fired", held, headerTimeout)
	}
	if status := healthz(t, "http://"+ln.Addr().String()); status != "ok" {
		t.Fatalf("healthz after the slow-header connection: %q (want ok)", status)
	}
	t.Logf("server closed a connection that never finished its headers after %v", held.Round(time.Millisecond))
}

// TestRestartAnswersWarm is the persistence check: serve against a data
// directory, warm the caches, snapshot, tear the whole stack down, boot a
// successor over the same directory, and require its first answer to be
// identical to the predecessor's warm answer — result-cache hit marker,
// simulated latency, and error bars included.
func TestRestartAnswersWarm(t *testing.T) {
	o := testOptions(t)
	o.data = t.TempDir()

	// Life 1: build cold, warm the caches with two queries, snapshot.
	eng1 := buildEngine(t, o)
	defer eng1.Close()
	srv1 := server.New(eng1, server.Config{Admission: admissionConfig(o)})
	base1, hs1 := serve(t, srv1)
	var warm json.RawMessage
	for i := 0; i < 2; i++ { // second pass: plan AND result caches hot
		warm = singleFrame(t, base1, boundedSQL)
	}
	if err := eng1.SnapshotWarmup(blinkdb.WarmupState{
		AdmissionEWMA: srv1.ExportAdmissionEWMA(),
	}); err != nil {
		t.Fatal(err)
	}
	// The "kill": listener closed, engine closed, process state gone.
	hs1.Close()
	eng1.Close()

	// Life 2: boot over the same directory. Samples load from segments,
	// caches restore from the warmup file; the FIRST answer must equal
	// life 1's steady-state answer.
	eng2 := buildEngine(t, o)
	defer eng2.Close()
	if notes := eng2.PersistenceNotes(); len(notes) != 0 {
		t.Fatalf("warm boot hit persistence notes: %v", notes)
	}
	base2, _ := serve(t, server.New(eng2, server.Config{Admission: admissionConfig(o)}))
	diffFrames(t, warm, singleFrame(t, base2, boundedSQL))
}

// restartLoadSpec is the kill+restart mix: a Poisson interactive cohort
// and a bursty half-streaming cohort, both aimed at the sessions table,
// running long enough to straddle the kill, the reload, and the reborn
// server's steady state.
func restartLoadSpec() loadgen.Spec {
	return loadgen.Spec{
		Seed:     77,
		Duration: 6 * time.Second,
		Cohorts: []loadgen.Cohort{
			{
				Name:    "interactive",
				Clients: 4, RateQPS: 40, RateSkew: 1.2,
				Arrival: loadgen.Poisson,
				Templates: []loadgen.Template{
					{Pattern: "SELECT AVG(sessiontimems) FROM sessions WHERE city = 'city00%d'",
						Cardinality: 9, Skew: 1.2, Weight: 3},
					{Pattern: "SELECT AVG(bufferingms) FROM sessions WHERE city = 'city00%d'",
						Cardinality: 9, Skew: 1.2, Weight: 1},
				},
				Bounds: []loadgen.Bound{
					{ErrorPct: 5, Confidence: 95, Weight: 2},
					{TimeSeconds: 1, Weight: 1},
					{Weight: 1},
				},
				GiveUpSeconds: 2,
			},
			{
				Name:    "dashboard",
				Clients: 2, RateQPS: 20,
				Arrival: loadgen.Gamma, Burstiness: 4,
				Templates: []loadgen.Template{
					{Pattern: "SELECT AVG(sessiontimems) FROM sessions WHERE city = 'city00%d'",
						Cardinality: 9, Skew: 1.5, Weight: 1},
				},
				Bounds:         []loadgen.Bound{{ErrorPct: 10, Confidence: 95, Weight: 1}},
				StreamFraction: 0.5,
			},
		},
	}
}

// TestRestartUnderLoad is the kill+restart check with the loadgen cohorts
// still firing: serve from a data directory, start the mix, snapshot and
// tear the stack down abruptly mid-burst (no drain — the listener and its
// connections die like a SIGKILL), rebind the same port warming, reload
// behind it, and require that (a) /healthz says "warming" while cohorts
// keep arriving, (b) the reborn server's first answer is bit-identical to
// the predecessor's warm answer, and (c) the cohorts observed all three
// regimes: served before the kill, 503 warming during the reload, served
// again after.
func TestRestartUnderLoad(t *testing.T) {
	o := testOptions(t)
	o.data = t.TempDir()

	// Life 1 on an explicit port so the successor can rebind it.
	eng1 := buildEngine(t, o)
	defer eng1.Close()
	srv1 := server.New(eng1, server.Config{Admission: admissionConfig(o)})
	base, hs1 := serve(t, srv1)
	addr := strings.TrimPrefix(base, "http://")
	var warm json.RawMessage
	for i := 0; i < 2; i++ { // second pass: plan AND result caches hot
		warm = singleFrame(t, base, boundedSQL)
	}

	// The cohorts run through the whole arc: kill, reload, rebirth.
	repc := make(chan *loadgen.Report, 1)
	errc := make(chan error, 1)
	go func() {
		rep, err := loadgen.Run(loadgen.Generate(restartLoadSpec()), base)
		if err != nil {
			errc <- err
			return
		}
		repc <- rep
	}()

	time.Sleep(1200 * time.Millisecond) // cohorts are mid-burst
	if err := eng1.SnapshotWarmup(blinkdb.WarmupState{
		AdmissionEWMA: srv1.ExportAdmissionEWMA(),
	}); err != nil {
		t.Fatal(err)
	}
	// The "kill": Close (unlike Shutdown) tears down the listener AND
	// every active connection with no drain; in-flight streams break
	// mid-frame. Give the aborted handlers a beat to unwind before the
	// engine goes away under them.
	hs1.Close()
	time.Sleep(300 * time.Millisecond)
	eng1.Close()

	// Life 2: rebind the same port immediately with a warming server, so
	// arrivals during the reload see 503 "warming", not dead air.
	var ln2 net.Listener
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; {
		if ln2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	eng2 := openEngine(o)
	defer eng2.Close()
	srv2 := server.New(eng2, server.Config{Warming: true, Admission: admissionConfig(o)})
	hs2 := httpServer(srv2, readHeaderTimeout)
	go hs2.Serve(ln2)
	defer hs2.Close()

	if status := healthz(t, base); status != "warming" {
		t.Fatalf("healthz during reload-under-load: %q (want warming)", status)
	}
	if err := warmEngine(eng2, srv2, o); err != nil {
		t.Fatal(err)
	}
	if notes := eng2.PersistenceNotes(); len(notes) != 0 {
		t.Fatalf("warm boot under load hit persistence notes: %v", notes)
	}
	srv2.SetReady()
	if status := healthz(t, base); status != "ok" {
		t.Fatalf("healthz after reload-under-load: %q (want ok)", status)
	}
	diffFrames(t, warm, singleFrame(t, base, boundedSQL))

	var rep *loadgen.Report
	select {
	case rep = <-repc:
	case err := <-errc:
		t.Fatalf("loadgen run: %v", err)
	}
	if rep.Served == 0 {
		t.Fatalf("cohorts were never served: %+v", rep)
	}
	if rep.Unavailable == 0 {
		t.Fatalf("cohorts never saw the warming window (kill+reload too fast?): %+v", rep)
	}
	t.Logf("cohorts: %+v", *rep)
}

// healthz returns the status string from /healthz regardless of HTTP
// code (the warming state is 503 by design).
func healthz(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Status
}

// singleFrame POSTs a non-streaming query and returns the raw JSON frame.
func singleFrame(t *testing.T, base, sql string) json.RawMessage {
	t.Helper()
	body := fmt.Sprintf(`{"sql": %q}`, sql)
	resp, err := http.Post(base+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// diffFrames compares two /query frames field by field, ignoring only
// elapsed_ms (wall clock). Everything else — values, bounds, cache
// markers, simulated latency — must match exactly.
func diffFrames(t *testing.T, life1, life2 json.RawMessage) {
	t.Helper()
	normalize := func(raw json.RawMessage) string {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "elapsed_ms")
		b, _ := json.Marshal(m)
		return string(b)
	}
	if a, b := normalize(life1), normalize(life2); a != b {
		t.Fatalf("frames differ:\n life1 %s\n life2 %s", a, b)
	}
}

// frame is the subset of the wire frame the streaming test validates.
type frame struct {
	Seq    int          `json:"seq"`
	Final  bool         `json:"final"`
	Error  string       `json:"error"`
	Result *frameResult `json:"result"`
}

type frameResult struct {
	Rows []struct {
		Group string `json:"group"`
		Cells []struct {
			Value float64 `json:"value"`
			Bound float64 `json:"bound"`
		} `json:"cells"`
	} `json:"rows"`
	Sample      string `json:"sample"`
	Explanation string `json:"explanation"`
}

// streamFrames POSTs a streaming query and returns its NDJSON frames.
func streamFrames(t *testing.T, base, sql string) []frame {
	t.Helper()
	body := fmt.Sprintf(`{"sql": %q, "stream": true}`, sql)
	resp, err := http.Post(base+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d", resp.StatusCode)
	}
	var frames []frame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var f frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad NDJSON frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// diffFinalFrame holds a final frame to library mode's answer: rows,
// groups, every cell's value and bound, and the annotations.
func diffFinalFrame(t *testing.T, final *frameResult, want *blinkdb.Result) {
	t.Helper()
	if len(final.Rows) != len(want.Rows) {
		t.Fatalf("final frame has %d rows, library mode %d", len(final.Rows), len(want.Rows))
	}
	for i, row := range want.Rows {
		got := final.Rows[i]
		if got.Group != row.Group || len(got.Cells) != len(row.Cells) {
			t.Fatalf("row %d mismatch: %+v vs %+v", i, got, row)
		}
		for j, c := range row.Cells {
			if got.Cells[j].Value != c.Value || got.Cells[j].Bound != c.Bound {
				t.Fatalf("cell %d/%d mismatch: %+v vs %+v", i, j, got.Cells[j], c)
			}
		}
	}
	if final.Sample != want.SampleDescription || final.Explanation != want.Explanation {
		t.Fatalf("final frame annotations diverge from library mode:\n got %q / %q\nwant %q / %q",
			final.Sample, final.Explanation, want.SampleDescription, want.Explanation)
	}
}
