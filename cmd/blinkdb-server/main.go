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
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"blinkdb"
	"blinkdb/internal/admission"
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
}

func main() {
	o, _ := parseFlags(flag.CommandLine, os.Args[1:]) // CommandLine exits on a bad flag
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "blinkdb-server:", err)
		os.Exit(1)
	}
}

// parseFlags reads the command's flags from args into options.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.rows, "rows", 100000, "fact table rows")
	fs.Float64Var(&o.budget, "budget", 0.5, "sample storage budget as a fraction of the table")
	fs.Int64Var(&o.seed, "seed", 42, "random seed")
	fs.Float64Var(&o.scale, "scale", 1e4, "stored-to-logical byte scale (latency model)")
	fs.IntVar(&o.maxConc, "max-concurrent", 1, "queries executing at once")
	fs.IntVar(&o.maxQueue, "max-queue", 16, "queued queries before shedding")
	fs.Float64Var(&o.maxBacklog, "max-backlog-seconds", 30, "predicted backlog seconds before shedding (negative disables)")
	fs.StringVar(&o.data, "data", "", "persistence directory for sample segments and warmup state (empty disables)")
	fs.DurationVar(&o.snapEvery, "snapshot-interval", time.Minute, "how often to re-snapshot warm state to -data (0 disables periodic snapshots)")
	return o, fs.Parse(args)
}

func run(o options) error {
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
	// ticking is closed once no periodic snapshot can start or is running.
	ticking := make(chan struct{})
	if o.data != "" && o.snapEvery > 0 {
		ticker := time.NewTicker(o.snapEvery)
		defer ticker.Stop()
		go func() {
			defer close(ticking)
			for {
				select {
				case <-ticker.C:
					snapshot()
				case <-ctx.Done():
					return
				}
			}
		}()
	} else {
		close(ticking)
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
	<-ticking  // a periodic snapshot in progress finishes first
	snapshot() // final snapshot, the last one written: the next boot starts warm
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
// production with readHeaderTimeout, the slow-header test with a header
// timeout short enough to wait out.
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
			fmt.Printf("  warmup restored: %d plans, %d results, %d admission costs\n",
				rep.Plans, rep.Results, len(rep.Warmup.AdmissionEWMA))
		}
		for _, note := range eng.PersistenceNotes() {
			fmt.Println("  persistence:", note)
		}
	}
	return nil
}

// loadSessions fills a Conviva-shaped sessions table through the public
// engine API. Deterministic per (rows, seed): two engines built with the
// same arguments answer bit-identically, which is what the end-to-end
// tests' library-mode and restart comparisons rely on.
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
