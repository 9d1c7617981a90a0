// Command blinkdb-server serves a BlinkDB engine over HTTP/JSON: bounded
// queries as single answers, streaming-refinement sessions as NDJSON or
// SSE, with ELP-priced admission control shedding overload before any
// scanning happens (429 + Retry-After) and graceful drain on SIGTERM.
//
//	$ blinkdb-server -rows 100000 -addr :8080 -data /var/lib/blinkdb
//	$ curl -s localhost:8080/query -d \
//	    '{"sql": "SELECT AVG(sessiontimems) FROM sessions GROUP BY os", "error": "10%", "stream": true}'
//
// With -data set, sample families and warm cache state persist across
// restarts: the listener comes up immediately with /healthz reporting
// "warming" (503), flips to "ok" once samples and warmup state have
// loaded, and the warm state re-snapshots periodically and on drain.
//
// See cmd/blinkdb-server/README.md for the endpoint reference.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blinkdb"
	"blinkdb/internal/admission"
	"blinkdb/internal/loadgen"
	"blinkdb/internal/server"
)

type options struct {
	addr       string
	rows       int
	budget     float64
	seed       int64
	scale      float64
	maxConc    int
	maxQueue   int
	maxBacklog float64
	data       string
	snapEvery  time.Duration
	selfcheck  bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.rows, "rows", 100000, "fact table rows")
	flag.Float64Var(&o.budget, "budget", 0.5, "sample storage budget as a fraction of the table")
	flag.Int64Var(&o.seed, "seed", 42, "random seed")
	flag.Float64Var(&o.scale, "scale", 1e4, "stored-to-logical byte scale (latency model)")
	flag.IntVar(&o.maxConc, "max-concurrent", 1, "queries executing at once")
	flag.IntVar(&o.maxQueue, "max-queue", 16, "queued queries before shedding")
	flag.Float64Var(&o.maxBacklog, "max-backlog-seconds", 30, "predicted backlog seconds before shedding (negative disables)")
	flag.StringVar(&o.data, "data", "", "persistence directory for sample segments and warmup state (empty disables)")
	flag.DurationVar(&o.snapEvery, "snapshot-interval", time.Minute, "how often to re-snapshot warm state to -data (0 disables periodic snapshots)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "start on a loopback port, run an end-to-end smoke (including kill+restart+diff), exit")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "blinkdb-server:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.selfcheck {
		return runSelfcheck(o)
	}

	// The listener comes up before any data loads: readiness is what
	// /healthz reports, not whether the port answers.
	eng := openEngine(o)
	defer eng.Close()
	srv := server.New(eng, server.Config{
		Warming:   true,
		Admission: admissionConfig(o),
	})
	hs := httpServer(srv, readHeaderTimeout)
	hs.Addr = o.addr
	// SIGTERM/SIGINT starts a graceful drain: the listener closes, queued
	// admissions keep their place, in-flight queries (and their streams)
	// run to completion, the warm state snapshots, then the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("serving on %s (POST /query, GET /healthz, GET /stats); warming...\n", o.addr)
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	boot := time.Now()
	if err := warmEngine(eng, srv, o); err != nil {
		return err
	}
	srv.SetReady()
	fmt.Printf("ready in %.3fs\n", time.Since(boot).Seconds())

	snapshot := func() {
		if o.data == "" {
			return
		}
		if err := eng.SnapshotWarmup(blinkdb.WarmupState{
			AdmissionEWMA: srv.ExportAdmissionEWMA(),
		}); err != nil {
			fmt.Fprintln(os.Stderr, "snapshot warmup:", err)
		}
	}
	if o.data != "" && o.snapEvery > 0 {
		ticker := time.NewTicker(o.snapEvery)
		defer ticker.Stop()
		go func() {
			for {
				select {
				case <-ticker.C:
					snapshot()
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("signal received; draining in-flight queries...")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	snapshot() // final snapshot: the next boot starts warm
	fmt.Println("drained; bye")
	return nil
}

// The serving timeouts. A connection gets readHeaderTimeout to deliver its
// request line and headers — one that opens and then trickles, or says
// nothing, holds a goroutine and a descriptor no longer than that — and a
// keep-alive connection with no request in flight is closed after
// idleTimeout. Neither bounds a query: bodies are capped in size (1 MiB)
// and a streamed answer may legitimately outlive any write deadline; a
// client that stops reading is cut off by its query's context instead.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// httpServer is the http.Server every listener of this command runs:
// production with readHeaderTimeout, the selfcheck's slow-header leg with a
// header timeout short enough to wait out.
func httpServer(h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
}

func admissionConfig(o options) admission.Config {
	return admission.Config{
		MaxConcurrent:     o.maxConc,
		MaxQueue:          o.maxQueue,
		MaxBacklogSeconds: o.maxBacklog,
	}
}

func openEngine(o options) *blinkdb.Engine {
	return blinkdb.Open(blinkdb.Config{
		Scale: o.scale, Seed: o.seed, CacheTables: true, DataDir: o.data,
	})
}

// warmEngine loads the sessions table, builds (or warm-loads) the sample
// families, and restores persisted warmup state into the caches and the
// admission controller. Runs behind the live listener while /healthz
// reports "warming".
func warmEngine(eng *blinkdb.Engine, srv *server.Server, o options) error {
	fmt.Printf("loading sessions dataset (%d rows)...\n", o.rows)
	if err := loadSessions(eng, o.rows, o.seed); err != nil {
		return err
	}
	if err := buildSamples(eng, o.budget); err != nil {
		return err
	}
	if o.data != "" {
		rep, err := eng.RestoreWarmup()
		if err != nil {
			return err
		}
		if rep != nil {
			if srv != nil {
				srv.ImportAdmissionEWMA(rep.Warmup.AdmissionEWMA)
			}
			fmt.Printf("  warmup restored: %d table epochs, %d plans, %d results, %d admission costs\n",
				rep.EpochsRestored, rep.Plans, rep.Results, len(rep.Warmup.AdmissionEWMA))
		}
		for _, note := range eng.PersistenceNotes() {
			fmt.Println("  persistence:", note)
		}
	}
	return nil
}

// loadSessions fills a Conviva-shaped sessions table through the public
// engine API. Deterministic per (rows, seed): two engines built with the
// same arguments answer bit-identically, which is what the selfcheck's
// library-mode and restart comparisons rely on.
func loadSessions(eng *blinkdb.Engine, rows int, seed int64) error {
	load := eng.CreateTable("sessions",
		blinkdb.Col("city", blinkdb.String),
		blinkdb.Col("os", blinkdb.String),
		blinkdb.Col("genre", blinkdb.String),
		blinkdb.Col("sessiontimems", blinkdb.Float),
		blinkdb.Col("bufferingms", blinkdb.Float),
	)
	rng := rand.New(rand.NewSource(seed))
	oses := []string{"Win7", "OSX", "WinXP", "Linux", "iOS", "Android"}
	genres := []string{"western", "drama", "news", "sports"}
	zipfCity := rand.NewZipf(rng, 1.5, 1, 11)
	for i := 0; i < rows; i++ {
		city := fmt.Sprintf("city%03d", zipfCity.Uint64())
		if err := load.Append(
			city, oses[rng.Intn(len(oses))], genres[rng.Intn(len(genres))],
			rng.ExpFloat64()*120000, rng.ExpFloat64()*800,
		); err != nil {
			return err
		}
	}
	return load.Close()
}

// buildSamples builds city/os-stratified sample families — or, when the
// engine has a data directory holding segments for this exact build
// signature, loads them from disk instead of re-stratifying.
func buildSamples(eng *blinkdb.Engine, budget float64) error {
	rep, err := eng.CreateSamples("sessions", blinkdb.SampleOptions{
		BudgetFraction: budget,
		K:              2000,
		Templates: []blinkdb.Template{
			{Columns: []string{"city"}, Weight: 0.6},
			{Columns: []string{"os"}, Weight: 0.4},
		},
	})
	if err != nil {
		return err
	}
	for _, f := range rep.Families {
		fmt.Printf("  sample family %v (%d rows, %d resolutions)\n",
			f.Columns, f.Rows, f.Resolutions)
	}
	return nil
}

// buildEngine is the selfcheck's twin constructor: open, load, sample,
// restore — everything the serving path does, synchronously.
func buildEngine(o options) (*blinkdb.Engine, error) {
	eng := openEngine(o)
	if err := warmEngine(eng, nil, o); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// runSelfcheck is the CI end-to-end smoke: serve on a loopback port,
// verify the warming→ready /healthz transition, stream one bounded query
// over real HTTP and compare the final frame against library mode on a
// twin engine, then restart against a persistence directory and verify
// the reborn server answers byte-identically from its restored caches.
func runSelfcheck(o options) error {
	eng, err := buildEngine(o)
	if err != nil {
		return err
	}
	defer eng.Close()
	srv := server.New(eng, server.Config{Warming: true, Admission: admissionConfig(o)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := httpServer(srv, readHeaderTimeout)
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// Warming gate: not ready until SetReady, ready after.
	if status, err := healthz(base); err != nil || status != "warming" {
		return fmt.Errorf("healthz while warming: %q, %v (want warming)", status, err)
	}
	srv.SetReady()
	if status, err := healthz(base); err != nil || status != "ok" {
		return fmt.Errorf("healthz when ready: %q, %v (want ok)", status, err)
	}

	// Stream a bounded query and validate the frames.
	const sql = `SELECT AVG(sessiontimems) FROM sessions WHERE city = 'city001' ERROR WITHIN 5% AT CONFIDENCE 95%`
	frames, err := streamFrames(base, sql)
	if err != nil {
		return err
	}
	if len(frames) < 2 {
		return fmt.Errorf("want at least one refinement before the final answer, got %d frame(s)", len(frames))
	}
	for i, f := range frames {
		if f.Error != "" {
			return fmt.Errorf("frame %d carries error %q", i, f.Error)
		}
		if f.Seq != i || f.Final != (i == len(frames)-1) || f.Result == nil {
			return fmt.Errorf("malformed frame sequence at %d: %+v", i, f)
		}
	}

	// The final frame must match library mode on a twin engine built with
	// the same arguments (floats survive the JSON round trip exactly).
	twin, err := buildEngine(o)
	if err != nil {
		return err
	}
	defer twin.Close()
	want, err := twin.Query(sql)
	if err != nil {
		return err
	}
	if err := diffFinalFrame(frames[len(frames)-1].Result, want); err != nil {
		return err
	}

	// Stats must show the admissions.
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var stats struct {
		Server struct {
			Admitted int64 `json:"Admitted"`
		} `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return err
	}
	if stats.Server.Admitted < 1 {
		return fmt.Errorf("stats report no admissions")
	}
	fmt.Printf("selfcheck ok: %d frames, final matches library mode\n", len(frames))

	if err := selfcheckSlowHeaders(srv); err != nil {
		return err
	}
	if err := selfcheckRestart(o, sql); err != nil {
		return err
	}
	return selfcheckRestartUnderLoad(o, sql)
}

// selfcheckSlowHeaders is the slowloris leg: a connection that sends a
// request line and one header and then nothing — never the blank line that
// ends them — must be closed by the server once the header timeout runs
// out, not held until the client gives up. It runs against the production
// server constructor with a header timeout short enough to wait out, and
// then checks that an honest request on the same listener is still served.
func selfcheckSlowHeaders(h http.Handler) error {
	const headerTimeout = 250 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := httpServer(h, headerTimeout)
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /query HTTP/1.1\r\nHost: selfcheck\r\n")); err != nil {
		return err
	}
	began := time.Now()
	patience := 20 * headerTimeout // a client far more patient than the server
	if err := conn.SetReadDeadline(began.Add(patience)); err != nil {
		return err
	}
	// The server owes an unfinished request nothing but the close: read to
	// EOF, whatever (if anything) it says first.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		return fmt.Errorf("slow-header connection still open after %v (header timeout %v): %w", patience, headerTimeout, err)
	}
	held := time.Since(began)
	if held < headerTimeout/2 {
		return fmt.Errorf("slow-header connection closed after %v, before the %v header timeout could have fired", held, headerTimeout)
	}
	if status, err := healthz("http://" + ln.Addr().String()); err != nil || status != "ok" {
		return fmt.Errorf("healthz after the slow-header connection: %q, %v (want ok)", status, err)
	}
	fmt.Printf("selfcheck ok: server closed a connection that never finished its headers after %v\n", held.Round(time.Millisecond))
	return nil
}

// selfcheckRestart is the persistence leg: serve against a data
// directory, warm the caches, snapshot, tear the whole stack down, boot
// a successor over the same directory, and require its first answer to
// be identical to the predecessor's warm answer — result-cache hit
// marker, simulated latency, and error bars included.
func selfcheckRestart(o options, sql string) error {
	dir, err := os.MkdirTemp("", "blinkdb-selfcheck-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o.data = dir

	// Life 1: build cold, warm the caches with two queries, snapshot.
	serveQuery := func(label string) (json.RawMessage, *server.Server, *blinkdb.Engine, func(), error) {
		eng, err := buildEngine(o)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		srv := server.New(eng, server.Config{Admission: admissionConfig(o)})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			eng.Close()
			return nil, nil, nil, nil, err
		}
		hs := httpServer(srv, readHeaderTimeout)
		go hs.Serve(ln)
		stop := func() { hs.Close(); eng.Close() }
		base := "http://" + ln.Addr().String()
		var last json.RawMessage
		for i := 0; i < 2; i++ { // second pass: plan AND result caches hot
			last, err = singleFrame(base, sql)
			if err != nil {
				stop()
				return nil, nil, nil, nil, fmt.Errorf("%s query %d: %w", label, i, err)
			}
		}
		return last, srv, eng, stop, nil
	}

	warm, srv1, eng1, stop1, err := serveQuery("life-1")
	if err != nil {
		return err
	}
	if err := eng1.SnapshotWarmup(blinkdb.WarmupState{
		AdmissionEWMA: srv1.ExportAdmissionEWMA(),
	}); err != nil {
		stop1()
		return err
	}
	stop1() // the "kill": listener closed, engine closed, process state gone

	// Life 2: boot over the same directory. Samples load from segments,
	// caches restore from the warmup file; the FIRST answer must equal
	// life 1's steady-state answer.
	eng2, err := buildEngine(o)
	if err != nil {
		return err
	}
	defer eng2.Close()
	if notes := eng2.PersistenceNotes(); len(notes) != 0 {
		return fmt.Errorf("warm boot hit persistence notes: %v", notes)
	}
	srv2 := server.New(eng2, server.Config{Admission: admissionConfig(o)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := httpServer(srv2, readHeaderTimeout)
	go hs.Serve(ln)
	defer hs.Close()

	reborn, err := singleFrame("http://"+ln.Addr().String(), sql)
	if err != nil {
		return fmt.Errorf("reborn query: %w", err)
	}
	if err := diffFrames(warm, reborn); err != nil {
		return fmt.Errorf("restart diff: %w", err)
	}
	fmt.Println("selfcheck restart ok: reborn server's first answer identical to predecessor's warm answer")
	return nil
}

// selfcheckLoadSpec is the kill+restart mix: a Poisson interactive
// cohort and a bursty half-streaming cohort, both aimed at the selfcheck
// sessions table, running long enough to straddle the kill, the reload,
// and the reborn server's steady state.
func selfcheckLoadSpec() loadgen.Spec {
	return loadgen.Spec{
		Seed:     77,
		Duration: 6 * time.Second,
		Cohorts: []loadgen.Cohort{
			{
				Name: "interactive", SLOClass: "interactive", SLOTargetSeconds: 1,
				Clients: 4, RateQPS: 40, RateSkew: 1.2,
				Arrival: loadgen.Poisson,
				Templates: []loadgen.Template{
					{Name: "avg-session", Pattern: "SELECT AVG(sessiontimems) FROM sessions WHERE city = 'city00%d'",
						Cardinality: 9, Skew: 1.2, Weight: 3},
					{Name: "avg-buffer", Pattern: "SELECT AVG(bufferingms) FROM sessions WHERE city = 'city00%d'",
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
				Name: "dashboard", SLOClass: "dashboard", SLOTargetSeconds: 2,
				Clients: 2, RateQPS: 20,
				Arrival: loadgen.Gamma, Burstiness: 4,
				Templates: []loadgen.Template{
					{Name: "avg-session-stream", Pattern: "SELECT AVG(sessiontimems) FROM sessions WHERE city = 'city00%d'",
						Cardinality: 9, Skew: 1.5, Weight: 1},
				},
				Bounds:         []loadgen.Bound{{ErrorPct: 10, Confidence: 95, Weight: 1}},
				StreamFraction: 0.5,
			},
		},
	}
}

// selfcheckRestartUnderLoad is the kill+restart leg with the loadgen
// cohorts still firing: serve from a data directory, start the mix,
// snapshot and tear the stack down abruptly mid-burst (no drain — the
// listener and its connections die like a SIGKILL), rebind the same
// port warming, reload behind it, and require that (a) /healthz says
// "warming" while cohorts keep arriving, (b) the reborn server's first
// answer is bit-identical to the predecessor's warm answer, and (c) the
// cohorts observed all three regimes: served before the kill, 503
// warming during the reload, served again after.
func selfcheckRestartUnderLoad(o options, sql string) error {
	dir, err := os.MkdirTemp("", "blinkdb-selfcheck-load-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o.data = dir

	// Life 1 on an explicit port so the successor can rebind it.
	eng1, err := buildEngine(o)
	if err != nil {
		return err
	}
	srv1 := server.New(eng1, server.Config{Admission: admissionConfig(o)})
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng1.Close()
		return err
	}
	addr := ln1.Addr().String()
	base := "http://" + addr
	hs1 := httpServer(srv1, readHeaderTimeout)
	go hs1.Serve(ln1)

	var warm json.RawMessage
	for i := 0; i < 2; i++ { // second pass: plan AND result caches hot
		if warm, err = singleFrame(base, sql); err != nil {
			hs1.Close()
			eng1.Close()
			return fmt.Errorf("life-1 warm query %d: %w", i, err)
		}
	}

	// The cohorts run through the whole arc: kill, reload, rebirth.
	repc := make(chan *loadgen.Report, 1)
	errc := make(chan error, 1)
	go func() {
		rep, err := loadgen.Run(loadgen.Generate(selfcheckLoadSpec()), loadgen.RunOptions{BaseURL: base})
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
		hs1.Close()
		eng1.Close()
		return err
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
	for deadline := time.Now().Add(5 * time.Second); ; {
		if ln2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rebind %s: %w", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	eng2 := openEngine(o)
	defer eng2.Close()
	srv2 := server.New(eng2, server.Config{Warming: true, Admission: admissionConfig(o)})
	hs2 := httpServer(srv2, readHeaderTimeout)
	go hs2.Serve(ln2)
	defer hs2.Close()

	if status, err := healthz(base); err != nil || status != "warming" {
		return fmt.Errorf("healthz during reload-under-load: %q, %v (want warming)", status, err)
	}
	if err := warmEngine(eng2, srv2, o); err != nil {
		return err
	}
	if notes := eng2.PersistenceNotes(); len(notes) != 0 {
		return fmt.Errorf("warm boot under load hit persistence notes: %v", notes)
	}
	srv2.SetReady()
	if status, err := healthz(base); err != nil || status != "ok" {
		return fmt.Errorf("healthz after reload-under-load: %q, %v (want ok)", status, err)
	}

	reborn, err := singleFrame(base, sql)
	if err != nil {
		return fmt.Errorf("reborn-under-load query: %w", err)
	}
	if err := diffFrames(warm, reborn); err != nil {
		return fmt.Errorf("restart-under-load diff: %w", err)
	}

	var rep *loadgen.Report
	select {
	case rep = <-repc:
	case err := <-errc:
		return fmt.Errorf("loadgen run: %w", err)
	}
	if rep.Served == 0 {
		return fmt.Errorf("cohorts were never served: %s", rep.Summary())
	}
	if rep.Unavailable == 0 {
		return fmt.Errorf("cohorts never saw the warming window (kill+reload too fast?): %s", rep.Summary())
	}
	fmt.Println("selfcheck restart-under-load ok: warming held, reborn answer identical, cohorts saw all three regimes")
	fmt.Print(rep.Summary())
	return nil
}

// healthz returns the status string from /healthz regardless of HTTP
// code (the warming state is 503 by design).
func healthz(base string) (string, error) {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", err
	}
	return body.Status, nil
}

// singleFrame POSTs a non-streaming query and returns the raw JSON frame.
func singleFrame(base, sql string) (json.RawMessage, error) {
	body := fmt.Sprintf(`{"sql": %q}`, sql)
	resp, err := http.Post(base+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("query: %d: %s", resp.StatusCode, raw)
	}
	return raw, nil
}

// diffFrames compares two /query frames field by field, ignoring only
// elapsed_ms (wall clock). Everything else — values, bounds, cache
// markers, simulated latency — must match exactly.
func diffFrames(a, b json.RawMessage) error {
	normalize := func(raw json.RawMessage) (map[string]any, error) {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, err
		}
		delete(m, "elapsed_ms")
		return m, nil
	}
	am, err := normalize(a)
	if err != nil {
		return err
	}
	bm, err := normalize(b)
	if err != nil {
		return err
	}
	aj, _ := json.Marshal(am)
	bj, _ := json.Marshal(bm)
	if string(aj) != string(bj) {
		return fmt.Errorf("frames differ:\n life1 %s\n life2 %s", aj, bj)
	}
	return nil
}

// selfcheckFrame is the subset of the wire frame the streaming phase
// validates.
type selfcheckFrame struct {
	Seq    int    `json:"seq"`
	Final  bool   `json:"final"`
	Error  string `json:"error"`
	Result *struct {
		Rows []struct {
			Group string `json:"group"`
			Cells []struct {
				Value float64 `json:"value"`
				Bound float64 `json:"bound"`
			} `json:"cells"`
		} `json:"rows"`
		Sample      string `json:"sample"`
		Explanation string `json:"explanation"`
	} `json:"result"`
}

func streamFrames(base, sql string) ([]selfcheckFrame, error) {
	body := fmt.Sprintf(`{"sql": %q, "stream": true}`, sql)
	resp, err := http.Post(base+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("query: %d", resp.StatusCode)
	}
	var frames []selfcheckFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var f selfcheckFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return nil, fmt.Errorf("bad NDJSON frame %q: %w", sc.Text(), err)
		}
		frames = append(frames, f)
	}
	return frames, sc.Err()
}

func diffFinalFrame(final *struct {
	Rows []struct {
		Group string `json:"group"`
		Cells []struct {
			Value float64 `json:"value"`
			Bound float64 `json:"bound"`
		} `json:"cells"`
	} `json:"rows"`
	Sample      string `json:"sample"`
	Explanation string `json:"explanation"`
}, want *blinkdb.Result) error {
	if len(final.Rows) != len(want.Rows) {
		return fmt.Errorf("final frame has %d rows, library mode %d", len(final.Rows), len(want.Rows))
	}
	for i, row := range want.Rows {
		got := final.Rows[i]
		if got.Group != row.Group || len(got.Cells) != len(row.Cells) {
			return fmt.Errorf("row %d mismatch: %+v vs %+v", i, got, row)
		}
		for j, c := range row.Cells {
			if got.Cells[j].Value != c.Value || got.Cells[j].Bound != c.Bound {
				return fmt.Errorf("cell %d/%d mismatch: %+v vs %+v", i, j, got.Cells[j], c)
			}
		}
	}
	if final.Sample != want.SampleDescription || final.Explanation != want.Explanation {
		return fmt.Errorf("final frame annotations diverge from library mode:\n got %q / %q\nwant %q / %q",
			final.Sample, final.Explanation, want.SampleDescription, want.Explanation)
	}
	return nil
}
