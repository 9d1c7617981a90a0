// Command blinkdb-bench regenerates the tables and figures of the paper's
// evaluation (§6) on the simulated cluster.
//
// Usage:
//
//	blinkdb-bench                  # run every experiment (full size)
//	blinkdb-bench -quick           # reduced dataset sizes
//	blinkdb-bench -run 6c,table5   # run a subset
//	blinkdb-bench -list            # list experiment names
//	blinkdb-bench -rows 200000     # override the Conviva row count
//	blinkdb-bench -json            # also write a BENCH_<date>.json snapshot
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blinkdb"
	"blinkdb/internal/admission"
	"blinkdb/internal/blockfile"
	"blinkdb/internal/exec"
	"blinkdb/internal/experiments"
	"blinkdb/internal/loadgen"
	"blinkdb/internal/server"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/telemetry"
	"blinkdb/internal/types"
	"blinkdb/internal/zipf"
)

// expRecord is one experiment's perf sample in the JSON snapshot.
type expRecord struct {
	Name string `json:"name"`
	// NsOp is the wall-clock nanoseconds of one full regeneration
	// (dataset + samples + queries), the same unit `go test -bench
	// -benchtime=1x` reports for the matching Benchmark.
	NsOp int64 `json:"ns_op"`
	// RowsPerSec is dataset rows divided by wall-clock — a coarse
	// throughput number that stays comparable across PRs as long as the
	// config is fixed (use -quick for the tracked snapshot).
	RowsPerSec float64 `json:"rows_per_sec"`
}

// execRecord reports the scan-executor micro-benchmark: a filtered
// grouped aggregation over an in-memory table at several worker counts.
// Results are bit-identical across worker counts, only throughput differs.
type execRecord struct {
	Rows   int `json:"rows"`
	Blocks int `json:"blocks"`
	// ColumnarRowsPerSec is the scan throughput by worker count (field
	// name kept stable for cross-PR comparison).
	ColumnarRowsPerSec map[string]float64 `json:"columnar_rows_per_sec_by_workers"`
	// LocalityHitRate is the fraction of the bench table's bytes the
	// node-affine schedule reads on the owning node (1.0 when every scan
	// range is a single block).
	LocalityHitRate float64 `json:"locality_hit_rate"`
	Speedup8vs1     float64 `json:"speedup_8_vs_1"`
}

// replayRecord reports the hot-template replay benchmark: one bounded
// query template is replayed against two engines that differ only in
// Config.PlanCacheSize — the default template-keyed plan cache vs the
// prepare-every-query pipeline. Answers are bit-identical (asserted
// before timing); only queries/sec differs. The replay cycles a few
// constants through the template, so the cache serves template hits for
// both repeated and fresh constants, like a real serving workload.
type replayRecord struct {
	Template string `json:"template"`
	// Queries is how many replays each timed engine served.
	Queries int `json:"queries"`
	// QpsCacheOn/Off are the measured queries/sec with the plan cache at
	// its default size vs disabled.
	QpsCacheOn  float64 `json:"qps_hot_template_cache_on"`
	QpsCacheOff float64 `json:"qps_hot_template_cache_off"`
	// HitRate is the cached engine's measured plan-cache hit rate.
	HitRate float64 `json:"plan_cache_hit_rate"`
	// Speedup is QpsCacheOn/QpsCacheOff.
	Speedup float64 `json:"cache_speedup"`
}

// resultReplayRecord reports the concurrent Zipf replay benchmark: a
// Zipf-skewed stream of fully-bound queries (hot constants repeat
// heavily, like real dashboard traffic) is replayed by several goroutines
// against two engines differing only in Config.ResultCacheSize — the
// default cross-query result cache vs the plan-cache-only pipeline.
// Answers are bit-identical (asserted before timing); only queries/sec
// differs, because a result-cache hit serves a completed answer from
// memory while the plan-cache-only engine re-scans the chosen view.
type resultReplayRecord struct {
	Template string `json:"template"`
	// Goroutines is the replay concurrency (singleflight territory).
	Goroutines int `json:"goroutines"`
	// Queries is how many replays the result-cached engine served.
	Queries int `json:"queries"`
	// QpsOn/QpsOff are queries/sec with the result cache at its default
	// size vs disabled (both engines keep the default plan cache, so the
	// off number IS the plan-cache-only baseline of PR 4).
	QpsOn  float64 `json:"qps_on"`
	QpsOff float64 `json:"qps_off"`
	// HitRate is hits/(hits+misses+shared) on the cached engine;
	// SharedRate is the singleflight share shared/(hits+misses+shared).
	HitRate    float64 `json:"hit_rate"`
	SharedRate float64 `json:"shared_rate"`
	// Speedup is QpsOn/QpsOff — the hot-replay speedup over the
	// plan-cache-only baseline.
	Speedup float64 `json:"speedup"`
}

// kernelRecord reports what run-length encoding buys the scan: single-
// thread throughput of a filtered grouped scan over a sorted-
// stratification table built with RLE against the same rows built with
// DisableRLE() (plain typed encodings). Both encodings are production —
// the builder picks per column and block — and answers are bit-identical;
// only the kernels each encoding dispatches to differ.
type kernelRecord struct {
	// RLERowsPerSec / PlainRowsPerSec are the two legs behind RLESpeedup.
	RLERowsPerSec   float64 `json:"rle_rows_per_sec"`
	PlainRowsPerSec float64 `json:"plain_rows_per_sec"`
	RLESpeedup      float64 `json:"rle_speedup"`
}

// templateTelemetry is one template's histogram summary in the snapshot.
type templateTelemetry struct {
	Template string `json:"template"`
	Queries  uint64 `json:"queries"`
	// P50Ms/P95Ms/P99Ms summarize the wall-clock latency histogram.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// PredictedOverObservedLatency compares the ELP's simulated-latency
	// projection against simulated-latency observations (mean/mean; a
	// calibration ratio, not a wall-clock comparison). Analogous for the
	// error half-width below — that pair IS same-units, so ≈1 means the
	// 1/√n extrapolation was honest.
	PredictedOverObservedLatency float64 `json:"predicted_over_observed_latency"`
	PredictedOverObservedBound   float64 `json:"predicted_over_observed_bound"`
}

// telemetryRecord reports the telemetry layer itself: the concurrent Zipf
// replay of resultReplayBench repeated against two engines differing only
// in Config.DisableTelemetry (answers are bit-identical by construction —
// the span API is nil-safe and decisions are computed unconditionally).
// OverheadFraction is the relative QPS cost of leaving telemetry on; the
// acceptance target is ≤ 5% on this cache-hit-heavy path, the worst case
// because per-query work is smallest there.
type telemetryRecord struct {
	QpsTelemetryOn   float64             `json:"qps_telemetry_on"`
	QpsTelemetryOff  float64             `json:"qps_telemetry_off"`
	OverheadFraction float64             `json:"overhead_fraction"`
	Templates        []templateTelemetry `json:"templates"`
}

// serverRecord reports the HTTP serving layer under 2× overload: a
// blinkdb-server (in-process, httptest listener) with MaxConcurrent=1
// and a short admission queue is hammered by more streaming clients than
// it can seat, so a steady fraction of arrivals is shed with 429 before
// any scanning. Served requests report client-observed time-to-first-
// answer (first NDJSON frame) vs time-to-final — the gap is what
// streaming refinement buys an impatient dashboard.
type serverRecord struct {
	// Goroutines is the client concurrency; the admission queue seats
	// MaxConcurrent+MaxQueue of them, so the offered load is ~2× capacity.
	Goroutines int `json:"goroutines"`
	// Queries / Shed count 200-OK sessions vs 429 rejections.
	Queries int `json:"queries"`
	Shed    int `json:"shed"`
	// Qps is completed sessions per second over the measurement window.
	Qps float64 `json:"http_qps"`
	// TTFAP50Ms / TTFP50Ms are the p50 of client-observed first-frame and
	// final-frame latency (ms) across served streaming sessions.
	TTFAP50Ms float64 `json:"time_to_first_answer_p50_ms"`
	TTFP50Ms  float64 `json:"time_to_final_p50_ms"`
	// ShedRate is Shed/(Queries+Shed) — the fraction of the 2× offered
	// load the admission controller refused instead of queueing without
	// bound.
	ShedRate float64 `json:"shed_rate_2x_overload"`
}

// persistenceRecord captures warm-boot economics: seconds from
// table-loaded to fully-warm (samples built/loaded, caches hot) on a
// cold start vs a restart over persisted segments and warmup state,
// plus sample-segment load throughput via mmap vs the portable
// ReadFile fallback.
type persistenceRecord struct {
	Rows int `json:"rows"`
	// ColdBootSeconds: stratify samples from scratch + execute the warm
	// query set. WarmBootSeconds: load segments + restore warmup +
	// replay the same set (cache hits).
	ColdBootSeconds float64 `json:"cold_boot_seconds"`
	WarmBootSeconds float64 `json:"warm_boot_seconds"`
	WarmBootSpeedup float64 `json:"warm_boot_speedup"`
	// RestoredPlans / RestoredResults count warmup-file cache entries
	// the restarted engine accepted.
	RestoredPlans   int `json:"restored_plans"`
	RestoredResults int `json:"restored_results"`
	// SegmentMB is the on-disk size of the persisted sample segments;
	// the two throughputs time opening them and materializing every
	// table, mmap vs ReadFile.
	SegmentMB        float64 `json:"segment_mb"`
	MmapLoadMBps     float64 `json:"mmap_load_mb_per_sec"`
	ReadFileLoadMBps float64 `json:"readfile_load_mb_per_sec"`
}

// loadgenRecord reports the closed-loop SLO harness: a seeded
// ServeGen-style cohort mix generated by internal/loadgen, recorded to
// its trace wire format, and replayed twice over real HTTP against a
// capacity-1 server — once cache-cold, once cache-warm with the very
// same trace. Per-SLO-class percentiles, bound-compliance and shed
// rates come straight from the runner's Report.
type loadgenRecord struct {
	Seed            int64   `json:"seed"`
	DurationSeconds float64 `json:"duration_seconds"`
	Cohorts         int     `json:"cohorts"`
	TraceRequests   int     `json:"trace_requests"`
	// TraceFingerprint identifies the recorded request stream;
	// TraceReplayIdentical asserts the determinism contract held: a
	// second Generate of the same spec and a read-back of the recorded
	// bytes both reproduce the stream byte-for-byte.
	TraceFingerprint     string `json:"trace_fingerprint"`
	TraceReplayIdentical bool   `json:"trace_replay_identical"`
	// ConservationOK asserts the serving-path accounting identity over
	// both passes: every dispatched arrival is admitted, shed, or
	// queue-cancelled on the server side. The bench panics when it does
	// not balance, so the CI smoke run enforces it.
	ConservationOK bool            `json:"conservation_ok"`
	Cold           *loadgen.Report `json:"cold"`
	Warm           *loadgen.Report `json:"warm"`
}

// snapshot is the BENCH_<date>.json schema.
type snapshot struct {
	Date        string             `json:"date"`
	Quick       bool               `json:"quick"`
	GoVersion   string             `json:"go_version"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Experiments []expRecord        `json:"experiments"`
	Executor    execRecord         `json:"executor"`
	PlanCache   replayRecord       `json:"plan_cache"`
	ResultCache resultReplayRecord `json:"result_cache"`
	Kernels     kernelRecord       `json:"kernels"`
	Telemetry   telemetryRecord    `json:"telemetry"`
	Server      serverRecord       `json:"server"`
	Persistence persistenceRecord  `json:"persistence"`
	Loadgen     loadgenRecord      `json:"loadgen"`
}

func main() {
	var (
		quick    = flag.Bool("quick", false, "use reduced dataset sizes")
		run      = flag.String("run", "", "comma-separated experiment names (default: all)")
		list     = flag.Bool("list", false, "list experiments and exit")
		rows     = flag.Int("rows", 0, "override Conviva row count")
		tpch     = flag.Int("tpch-rows", 0, "override TPC-H row count")
		seed     = flag.Int64("seed", 0, "override random seed")
		jsonOut  = flag.Bool("json", false, "write a BENCH_<date>.json perf snapshot")
		jsonPath = flag.String("json-path", "", "override the snapshot path (implies -json)")
		smoke    = flag.Bool("smoke", false, "shrink the executor/replay micro-benchmarks (CI path coverage; numbers not comparable to tracked snapshots)")
		loadOnly = flag.Bool("loadgen", false, "run only the loadgen closed-loop SLO harness and print its record as JSON")
		trace    = flag.String("trace", "", "write a Chrome trace-event file of a cold+warm query pair to this path")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.Name, e.Description)
		}
		return
	}

	if *loadOnly {
		rec := loadgenBench(*smoke)
		data, err := json.MarshalIndent(&rec, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal loadgen record: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		return
	}

	cfg := experiments.Config{}
	if *quick {
		cfg = experiments.Quick()
	}
	if *rows > 0 {
		cfg.ConvivaRows = *rows
	}
	if *tpch > 0 {
		cfg.TPCHRows = *tpch
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	names := map[string]bool{}
	if *run != "" {
		for _, n := range strings.Split(*run, ",") {
			names[strings.TrimSpace(n)] = true
		}
	}

	snap := snapshot{
		Date:       time.Now().Format("2006-01-02"),
		Quick:      *quick,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	datasetRows := cfg.TotalDatasetRows()

	failed := 0
	for _, e := range experiments.All() {
		if len(names) > 0 && !names[e.Name] {
			continue
		}
		start := time.Now()
		tab, err := e.Run(cfg)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.Name, err)
			failed++
			continue
		}
		fmt.Println(tab)
		fmt.Printf("(%s regenerated in %.1fs)\n\n", e.Name, elapsed.Seconds())
		snap.Experiments = append(snap.Experiments, expRecord{
			Name:       e.Name,
			NsOp:       elapsed.Nanoseconds(),
			RowsPerSec: float64(datasetRows) / elapsed.Seconds(),
		})
	}

	if *trace != "" {
		if err := traceExport(*trace, *smoke); err != nil {
			fmt.Fprintf(os.Stderr, "trace export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace written to %s (open via chrome://tracing or ui.perfetto.dev)\n", *trace)
	}

	if *jsonOut || *jsonPath != "" {
		snap.Executor = executorBench(*smoke)
		snap.PlanCache = replayBench(*smoke)
		snap.ResultCache = resultReplayBench(*smoke)
		snap.Kernels = kernelsBench(*smoke)
		snap.Telemetry = telemetryBench(*smoke)
		snap.Server = serverBench(*smoke)
		snap.Persistence = persistenceBench(*smoke)
		snap.Loadgen = loadgenBench(*smoke)
		path := *jsonPath
		if path == "" {
			path = "BENCH_" + snap.Date + ".json"
		}
		data, err := json.MarshalIndent(&snap, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal snapshot: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write snapshot: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("perf snapshot written to %s\n", path)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// executorBench measures the partitioned scan executor in isolation:
// rows/s of a filtered grouped aggregation at worker counts 1, 2, 4, 8.
// Results are bit-identical across counts; only throughput differs
// (worker scaling needs GOMAXPROCS > 1 — single-core hosts report
// speedup_8_vs_1 ≈ 1). smoke shrinks data and timing windows for CI path
// coverage; smoke numbers are not comparable to tracked snapshots.
func executorBench(smoke bool) execRecord {
	rows := 300000
	window := 500 * time.Millisecond
	if smoke {
		rows, window = 60000, 100*time.Millisecond
	}
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "code", Kind: types.KindInt},
		types.Column{Name: "sessiontime", Kind: types.KindFloat},
	)
	tab := storage.NewTable("bench", schema)
	b := storage.NewBuilder(tab, 2048, 4, storage.InMemory)
	rng := rand.New(rand.NewSource(17))
	cities := []string{"NY", "SF", "LA", "Austin", "Boise"}
	for i := 0; i < rows; i++ {
		b.AppendRow(types.Row{
			types.Str(cities[rng.Intn(len(cities))]),
			types.Int(int64(rng.Intn(1000))),
			types.Float(rng.ExpFloat64() * 100),
		})
	}
	b.Finish()
	q := `SELECT COUNT(*), SUM(sessiontime), AVG(sessiontime) FROM bench WHERE code < 900 GROUP BY city`
	plan, err := compileBench(q, schema)
	if err != nil {
		panic(err) // static query against a static schema
	}

	rec := execRecord{Rows: rows, Blocks: len(tab.Blocks), ColumnarRowsPerSec: map[string]float64{}}
	_, shards := exec.ScanShards(tab.Blocks)
	rec.LocalityHitRate = storage.LocalityHitRate(shards)
	for _, w := range []int{1, 2, 4, 8} {
		rec.ColumnarRowsPerSec[fmt.Sprintf("%d", w)] = scanRowsPerSec(plan, tab, w, window)
	}
	if base := rec.ColumnarRowsPerSec["1"]; base > 0 {
		rec.Speedup8vs1 = rec.ColumnarRowsPerSec["8"] / base
	}
	return rec
}

// scanRowsPerSec warms the scan up once, then times whole-table scans for
// one window and returns rows per second.
func scanRowsPerSec(plan *exec.Plan, tab *storage.Table, workers int, window time.Duration) float64 {
	in := exec.FromTable(tab)
	exec.RunParallel(plan, in, 0.95, workers)
	iters := 0
	start := time.Now()
	for time.Since(start) < window {
		exec.RunParallel(plan, in, 0.95, workers)
		iters++
	}
	return float64(tab.NumRows()) * float64(iters) / time.Since(start).Seconds()
}

// kernelsBench measures the RLE encoding's payoff in isolation (see
// kernelRecord). Both legs run the one scan path single-threaded on
// identical logical data; the RLE/plain builder toggle is purely physical,
// so the pairing is answer-identical by construction.
func kernelsBench(smoke bool) kernelRecord {
	strata, perStratum := 100, 2000
	window := 500 * time.Millisecond
	if smoke {
		strata, perStratum, window = 40, 500, 100*time.Millisecond
	}

	// The sorted-stratification shape: rows arrive sorted by the
	// stratification column (~perStratum-row runs, the layout
	// sample.Build produces), which the RLE leg encodes per-run and the
	// plain leg dictionary-encodes per-row.
	schema := types.NewSchema(
		types.Column{Name: "strat", Kind: types.KindString},
		types.Column{Name: "v", Kind: types.KindFloat},
	)
	build := func(rle bool) *storage.Table {
		tab := storage.NewTable("strat", schema)
		b := storage.NewBuilder(tab, 2048, 4, storage.InMemory)
		if rle {
			b.HintSortedColumns(0)
		} else {
			b.DisableRLE()
		}
		rng := rand.New(rand.NewSource(29))
		for s := 0; s < strata; s++ {
			name := types.Str(fmt.Sprintf("stratum-%03d", s))
			for j := 0; j < perStratum; j++ {
				b.Append(types.Row{name, types.Float(rng.ExpFloat64() * 100)},
					storage.RowMeta{Rate: 1, StratumFreq: 1000})
			}
		}
		return b.Finish()
	}

	// The range covers ~60% of the strata, so blocks split into pruned /
	// all-true / mixed — the full three-state zone spread.
	scanQ := fmt.Sprintf(
		`SELECT COUNT(*), SUM(v) FROM strat WHERE strat >= 'stratum-%03d' AND strat < 'stratum-%03d' GROUP BY strat`,
		strata/5, strata/5+(strata*3)/5)
	scanPlan, err := compileBench(scanQ, schema)
	if err != nil {
		panic(err)
	}
	rec := kernelRecord{
		RLERowsPerSec:   scanRowsPerSec(scanPlan, build(true), 1, window),
		PlainRowsPerSec: scanRowsPerSec(scanPlan, build(false), 1, window),
	}
	if rec.PlainRowsPerSec > 0 {
		rec.RLESpeedup = rec.RLERowsPerSec / rec.PlainRowsPerSec
	}
	return rec
}

// replayBench measures the prepare/execute pipeline on a hot-template
// workload: a Zipf-skewed table (the paper's Conviva-like regime, where
// stratified families actually get built) queried by a template whose
// filter column is NOT stratified — so every cold query probes the
// smallest sample of every family before answering, the §4 cost the plan
// cache amortizes. The same query sequence runs against a cached and an
// uncached engine; answers are asserted bit-identical first, then each
// engine is timed.
func replayBench(smoke bool) replayRecord {
	// Sized so the family probes dominate a cold query (tens of
	// thousands of sample rows scanned per probe pass); at toy sizes
	// fixed per-query overhead (parse, latency pricing) would mask the
	// probe savings. smoke shrinks everything for CI path coverage —
	// the bit-identity gate still runs, but the speedup/hit-rate numbers
	// are not comparable to tracked snapshots.
	rows, sampleK, window := 200000, int64(8000), 2*time.Second
	if smoke {
		rows, sampleK, window = 50000, 2000, 300*time.Millisecond
	}
	// Result cache off on BOTH engines: this record tracks the
	// plan-cache amortization in isolation (resultReplayBench measures
	// the result-cache layer on top).
	build := func(planCache int) *blinkdb.Engine {
		return buildTrafficEngine(rows, sampleK, planCache, -1, false)
	}
	engOn := build(0)   // default: cache on
	engOff := build(-1) // disabled
	// genre is not a stratification column: cold queries probe every family.
	queryFor := func(i int) string {
		genres := []string{"western", "drama", "comedy"}
		return fmt.Sprintf(`SELECT AVG(sessiontime) FROM traffic WHERE genre = '%s' ERROR WITHIN 10%%`, genres[i%3])
	}

	// Equivalence gate: cached answers must match uncached bit for bit.
	for i := 0; i < 6; i++ {
		on, err := engOn.Query(queryFor(i))
		if err != nil {
			panic(err)
		}
		off, err := engOff.Query(queryFor(i))
		if err != nil {
			panic(err)
		}
		if len(on.Rows) != len(off.Rows) {
			panic(fmt.Sprintf("replay bench: cache on/off answers diverge on %q (rows %d vs %d)",
				queryFor(i), len(on.Rows), len(off.Rows)))
		}
		for r := range off.Rows {
			if len(on.Rows[r].Cells) != len(off.Rows[r].Cells) {
				panic(fmt.Sprintf("replay bench: cache on/off answers diverge on %q (row %d cells)", queryFor(i), r))
			}
			for c := range off.Rows[r].Cells {
				if on.Rows[r].Cells[c] != off.Rows[r].Cells[c] {
					panic(fmt.Sprintf("replay bench: cache on/off answers diverge on %q", queryFor(i)))
				}
			}
		}
	}

	measure := func(eng *blinkdb.Engine) (float64, int) {
		iters := 0
		start := time.Now()
		for time.Since(start) < window {
			if _, err := eng.Query(queryFor(iters)); err != nil {
				panic(err)
			}
			iters++
		}
		return float64(iters) / time.Since(start).Seconds(), iters
	}
	rec := replayRecord{Template: `SELECT AVG(sessiontime) FROM traffic WHERE genre = ? ERROR WITHIN 10%`}
	rec.QpsCacheOn, rec.Queries = measure(engOn)
	rec.QpsCacheOff, _ = measure(engOff)
	if rec.QpsCacheOff > 0 {
		rec.Speedup = rec.QpsCacheOn / rec.QpsCacheOff
	}
	rec.HitRate = engOn.Stats().PlanCacheHitRate()
	return rec
}

// buildTrafficEngine loads the Zipf-skewed Conviva-like traffic table
// (the regime where stratified families get built and cold probes are
// expensive) into an engine with explicit cache knobs. Shared by the
// plan-cache and result-cache replay benches so the two records measure
// the same data.
func buildTrafficEngine(rows int, sampleK int64, planCache, resultCache int, disableTelemetry bool) *blinkdb.Engine {
	eng := blinkdb.Open(blinkdb.Config{
		Seed: 11, Scale: 1e4, CacheTables: true,
		PlanCacheSize: planCache, ResultCacheSize: resultCache,
		DisableTelemetry: disableTelemetry,
	})
	load := eng.CreateTable("traffic",
		blinkdb.Col("city", blinkdb.String),
		blinkdb.Col("os", blinkdb.String),
		blinkdb.Col("browser", blinkdb.String),
		blinkdb.Col("country", blinkdb.String),
		blinkdb.Col("device", blinkdb.String),
		blinkdb.Col("genre", blinkdb.String),
		blinkdb.Col("sessiontime", blinkdb.Float),
	)
	rng := rand.New(rand.NewSource(5))
	cityGen := zipf.NewGeneratorCDF(rng, 1.3, 200)
	osGen := zipf.NewGeneratorCDF(rng, 1.3, 40)
	browserGen := zipf.NewGeneratorCDF(rng, 1.3, 60)
	countryGen := zipf.NewGeneratorCDF(rng, 1.3, 80)
	deviceGen := zipf.NewGeneratorCDF(rng, 1.3, 25)
	genres := []string{"western", "drama", "comedy", "news"}
	for i := 0; i < rows; i++ {
		if err := load.Append(
			fmt.Sprintf("city%d", cityGen.Next()),
			fmt.Sprintf("os%d", osGen.Next()),
			fmt.Sprintf("browser%d", browserGen.Next()),
			fmt.Sprintf("country%d", countryGen.Next()),
			fmt.Sprintf("device%d", deviceGen.Next()),
			genres[rng.Intn(len(genres))],
			rng.ExpFloat64()*100,
		); err != nil {
			panic(err)
		}
	}
	if err := load.Close(); err != nil {
		panic(err)
	}
	if _, err := eng.CreateSamples("traffic", blinkdb.SampleOptions{
		BudgetFraction: 1.2,
		K:              sampleK,
		Templates: []blinkdb.Template{
			{Columns: []string{"city"}, Weight: 0.3},
			{Columns: []string{"os"}, Weight: 0.2},
			{Columns: []string{"browser"}, Weight: 0.2},
			{Columns: []string{"country"}, Weight: 0.2},
			{Columns: []string{"device"}, Weight: 0.1},
		},
	}); err != nil {
		panic(err)
	}
	return eng
}

// resultReplayBench measures the result cache on a concurrent Zipf
// replay: fully-bound queries whose constants follow a Zipf law (hot
// genres dominate, like dashboard traffic) are replayed by several
// goroutines. The result-cached engine answers repeats from memory and
// collapses concurrent cold replays via singleflight; the baseline
// engine (result cache off, plan cache on — i.e. PR 4's pipeline)
// re-executes the chosen view scan every time. Answers are asserted
// bit-identical before timing.
func resultReplayBench(smoke bool) resultReplayRecord {
	rows, sampleK, window := 200000, int64(8000), 2*time.Second
	if smoke {
		rows, sampleK, window = 50000, 2000, 300*time.Millisecond
	}
	engOn := buildTrafficEngine(rows, sampleK, 0, 0, false)   // both caches default-on
	engOff := buildTrafficEngine(rows, sampleK, 0, -1, false) // result cache disabled

	// Zipf-distributed constants over the 200-city space: hot cities
	// repeat heavily (result hits) while the long tail keeps surfacing
	// cold bindings throughout the run — and because every goroutine
	// replays the same sequence from the same offset, a cold binding is
	// typically requested by several goroutines at once (the cache
	// stampede singleflight exists for).
	cityGen := zipf.NewGeneratorCDF(rand.New(rand.NewSource(23)), 1.1, 200)
	const replaySize = 1024
	replay := make([]string, replaySize)
	for i := range replay {
		replay[i] = fmt.Sprintf(
			`SELECT AVG(sessiontime) FROM traffic WHERE city = 'city%d' ERROR WITHIN 10%%`,
			cityGen.Next())
	}

	// Equivalence gate: result-cached answers must match the baseline bit
	// for bit — on the caching miss AND on replayed hits (indices repeat).
	for i := 0; i < 12; i++ {
		src := replay[i%8]
		on, err := engOn.Query(src)
		if err != nil {
			panic(err)
		}
		off, err := engOff.Query(src)
		if err != nil {
			panic(err)
		}
		if len(on.Rows) != len(off.Rows) {
			panic(fmt.Sprintf("result replay bench: answers diverge on %q (rows %d vs %d)",
				src, len(on.Rows), len(off.Rows)))
		}
		for r := range off.Rows {
			for c := range off.Rows[r].Cells {
				if on.Rows[r].Cells[c] != off.Rows[r].Cells[c] {
					panic(fmt.Sprintf("result replay bench: answers diverge on %q", src))
				}
			}
		}
	}

	goroutines := 4
	measure := func(eng *blinkdb.Engine) (float64, int) {
		var total atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ { // same offset: stampede the cold tail together
					select {
					case <-stop:
						return
					default:
					}
					if _, err := eng.Query(replay[i%replaySize]); err != nil {
						panic(err)
					}
					total.Add(1)
				}
			}()
		}
		start := time.Now()
		time.Sleep(window)
		close(stop)
		wg.Wait()
		return float64(total.Load()) / time.Since(start).Seconds(), int(total.Load())
	}
	rec := resultReplayRecord{
		Template:   `SELECT AVG(sessiontime) FROM traffic WHERE city = ? ERROR WITHIN 10%`,
		Goroutines: goroutines,
	}
	rec.QpsOn, rec.Queries = measure(engOn)
	rec.QpsOff, _ = measure(engOff)
	if rec.QpsOff > 0 {
		rec.Speedup = rec.QpsOn / rec.QpsOff
	}
	s := engOn.Stats()
	if total := s.ResultCacheHits + s.ResultCacheMisses + s.ResultCacheShared; total > 0 {
		rec.HitRate = float64(s.ResultCacheHits) / float64(total)
		rec.SharedRate = float64(s.ResultCacheShared) / float64(total)
	}
	return rec
}

// telemetryBench prices the telemetry layer on the worst-case path: the
// concurrent Zipf replay of resultReplayBench, where most queries are
// result-cache hits and per-query work is minimal, so fixed telemetry
// cost (one wall-clock read + one histogram Observe per query) is the
// largest fraction of total time it will ever be. Two engines differ only
// in Config.DisableTelemetry; the per-template percentiles come from the
// telemetry-on engine's registry after its timed run.
func telemetryBench(smoke bool) telemetryRecord {
	rows, sampleK, window := 200000, int64(8000), 2*time.Second
	if smoke {
		rows, sampleK, window = 50000, 2000, 300*time.Millisecond
	}
	engOn := buildTrafficEngine(rows, sampleK, 0, 0, false)
	engOff := buildTrafficEngine(rows, sampleK, 0, 0, true)

	// Warm the template with a HOT constant on both engines. The error
	// projection is derived from the template's cached probe, so whichever
	// constant goes cold first determines it: a tail city's stratum is
	// fully sampled (exact probe → projected half-width 0, honestly — the
	// planner believed the answer exact) and would pin the template's
	// predicted-vs-observed ratio at 0 for the whole run. city1's stratum
	// is capped, so its probe carries sampling error and the recorded
	// ratio is the meaningful calibration signal.
	for _, eng := range []*blinkdb.Engine{engOn, engOff} {
		if _, err := eng.Query(`SELECT AVG(sessiontime) FROM traffic WHERE city = 'city1' ERROR WITHIN 10%`); err != nil {
			panic(err)
		}
	}

	cityGen := zipf.NewGeneratorCDF(rand.New(rand.NewSource(23)), 1.1, 200)
	const replaySize = 1024
	replay := make([]string, replaySize)
	for i := range replay {
		replay[i] = fmt.Sprintf(
			`SELECT AVG(sessiontime) FROM traffic WHERE city = 'city%d' ERROR WITHIN 10%%`,
			cityGen.Next())
	}

	goroutines := 4
	measure := func(eng *blinkdb.Engine) float64 {
		var total atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := eng.Query(replay[i%replaySize]); err != nil {
						panic(err)
					}
					total.Add(1)
				}
			}()
		}
		start := time.Now()
		time.Sleep(window)
		close(stop)
		wg.Wait()
		return float64(total.Load()) / time.Since(start).Seconds()
	}
	rec := telemetryRecord{}
	rec.QpsTelemetryOn = measure(engOn)
	rec.QpsTelemetryOff = measure(engOff)
	if rec.QpsTelemetryOff > 0 {
		rec.OverheadFraction = 1 - rec.QpsTelemetryOn/rec.QpsTelemetryOff
	}
	snap := engOn.Telemetry()
	for _, t := range snap.Templates {
		rec.Templates = append(rec.Templates, templateTelemetry{
			Template:                     t.Key,
			Queries:                      t.Queries,
			P50Ms:                        t.Latency.P50 * 1e3,
			P95Ms:                        t.Latency.P95 * 1e3,
			P99Ms:                        t.Latency.P99 * 1e3,
			PredictedOverObservedLatency: t.PredictedOverObservedLatency,
			PredictedOverObservedBound:   t.PredictedOverObservedBound,
		})
	}
	return rec
}

// serverBench drives the HTTP serving layer at 2× its admission capacity
// (see serverRecord). The engine runs with the result cache OFF so every
// admitted session actually scans — with it on nothing queues and nothing
// sheds, which would measure the cache again instead of the server.
func serverBench(smoke bool) serverRecord {
	rows, sampleK, window := 200000, int64(8000), 2*time.Second
	if smoke {
		rows, sampleK, window = 50000, 2000, 300*time.Millisecond
	}
	eng := buildTrafficEngine(rows, sampleK, 0, -1, false)
	srv := server.New(eng, server.Config{Admission: admission.Config{
		MaxConcurrent:     1,
		MaxQueue:          3,
		MaxBacklogSeconds: -1, // bound by seats: the 2× ratio stays exact
	}})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// Warm the template (plan cache + latency calibration, which prices
	// admission for the rest of the run) before the clock starts.
	warm, err := http.Post(hs.URL+"/query", "application/json",
		strings.NewReader(`{"sql": "SELECT AVG(sessiontime) FROM traffic WHERE city = 'city1' ERROR WITHIN 10%"}`))
	if err != nil {
		panic(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()

	cityGen := zipf.NewGeneratorCDF(rand.New(rand.NewSource(23)), 1.1, 200)
	const replaySize = 256
	replay := make([]string, replaySize)
	for i := range replay {
		replay[i] = fmt.Sprintf(
			`{"sql": "SELECT AVG(sessiontime) FROM traffic WHERE city = 'city%d' ERROR WITHIN 10%%", "stream": true}`,
			cityGen.Next())
	}

	// 2× overload: the admission queue seats MaxConcurrent+MaxQueue = 4
	// sessions; 8 always-on clients offer twice that.
	const goroutines = 8
	var mu sync.Mutex
	var ttfa, ttf []float64
	served, shed := 0, 0
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ { // staggered offsets: clients mostly miss each other's keys
				select {
				case <-stop:
					return
				default:
				}
				begin := time.Now()
				resp, err := http.Post(hs.URL+"/query", "application/json",
					strings.NewReader(replay[i%replaySize]))
				if err != nil {
					panic(err)
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					mu.Lock()
					shed++
					mu.Unlock()
					continue
				}
				sc := bufio.NewScanner(resp.Body)
				sc.Buffer(make([]byte, 1<<20), 1<<20)
				first := 0.0
				for sc.Scan() {
					if first == 0 {
						first = time.Since(begin).Seconds()
					}
				}
				final := time.Since(begin).Seconds()
				resp.Body.Close()
				mu.Lock()
				served++
				ttfa = append(ttfa, first)
				ttf = append(ttf, final)
				mu.Unlock()
			}
		}(g)
	}
	start := time.Now()
	time.Sleep(window)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	rec := serverRecord{
		Goroutines: goroutines,
		Queries:    served,
		Shed:       shed,
		Qps:        float64(served) / elapsed,
		TTFAP50Ms:  p50(ttfa) * 1e3,
		TTFP50Ms:   p50(ttf) * 1e3,
	}
	if total := served + shed; total > 0 {
		rec.ShedRate = float64(shed) / float64(total)
	}
	return rec
}

// loadgenSpec is the bench's production-shaped mix: an interactive
// error-bounded cohort, a bursty streaming-dashboard cohort, and a
// time-bounded batch cohort, all aimed at the Zipf traffic table.
func loadgenSpec(smoke bool) loadgen.Spec {
	dur := 3 * time.Second
	if smoke {
		dur = 1200 * time.Millisecond
	}
	return loadgen.Spec{
		Seed:     4242,
		Duration: dur,
		Cohorts: []loadgen.Cohort{
			{
				Name: "interactive", SLOClass: "interactive", SLOTargetSeconds: 0.5,
				Clients: 8, RateQPS: 150, RateSkew: 1.1,
				Arrival: loadgen.Poisson,
				Templates: []loadgen.Template{
					{Name: "avg-city", Pattern: "SELECT AVG(sessiontime) FROM traffic WHERE city = 'city%d'",
						Cardinality: 200, Skew: 1.1, Weight: 3},
					{Name: "avg-os", Pattern: "SELECT AVG(sessiontime) FROM traffic WHERE os = 'os%d'",
						Cardinality: 40, Skew: 1.2, Weight: 1},
				},
				Bounds: []loadgen.Bound{
					{ErrorPct: 10, Confidence: 95, Weight: 3},
					{Weight: 1},
				},
				GiveUpSeconds: 2,
			},
			{
				Name: "dashboard", SLOClass: "dashboard", SLOTargetSeconds: 1,
				Clients: 4, RateQPS: 60,
				Arrival: loadgen.Gamma, Burstiness: 4,
				Templates: []loadgen.Template{
					{Name: "avg-country", Pattern: "SELECT AVG(sessiontime) FROM traffic WHERE country = 'country%d'",
						Cardinality: 80, Skew: 1.2, Weight: 1},
				},
				Bounds:         []loadgen.Bound{{ErrorPct: 5, Confidence: 95, Weight: 1}},
				StreamFraction: 1,
			},
			{
				Name: "batch", SLOClass: "batch",
				Clients: 2, RateQPS: 15,
				Arrival: loadgen.Poisson,
				Templates: []loadgen.Template{
					{Name: "avg-browser", Pattern: "SELECT AVG(sessiontime) FROM traffic WHERE browser = 'browser%d'",
						Cardinality: 60, Weight: 1},
				},
				Bounds: []loadgen.Bound{{TimeSeconds: 2, Weight: 1}},
			},
		},
	}
}

// loadgenBench generates the seeded cohort mix, proves the trace
// record/replay determinism contract, then replays the recorded trace
// twice against one capacity-1 server — cold caches, then warm — and
// asserts the serving-path conservation identity before reporting.
func loadgenBench(smoke bool) loadgenRecord {
	rows, sampleK := 200000, int64(8000)
	if smoke {
		rows, sampleK = 50000, int64(2000)
	}
	spec := loadgenSpec(smoke)
	tr := loadgen.Generate(spec)
	wire := tr.Bytes()

	// Determinism contract: regeneration and wire round-trip must both
	// reproduce the recorded stream byte-for-byte. The replay below uses
	// the *read-back* trace, so what drives the server is what replays.
	replayed, err := loadgen.ReadTrace(bytes.NewReader(wire))
	if err != nil {
		panic(fmt.Sprintf("loadgen trace round-trip: %v", err))
	}
	identical := bytes.Equal(replayed.Bytes(), wire) &&
		bytes.Equal(loadgen.Generate(spec).Bytes(), wire)

	// Result cache ON: the warm pass of the same trace then measures the
	// cache-warm serving path against the cold pass's numbers. The
	// backlog is bounded in *predicted* seconds, which is where the
	// cold/warm contrast bites hardest: cold, every template prices at
	// the 0.1s default and bursts shed; warm, the admission EWMA has
	// learned the real per-template costs and the same trace flows
	// through — the paper's priced-admission loop closing in miniature.
	eng := buildTrafficEngine(rows, sampleK, 0, 0, false)
	srv := server.New(eng, server.Config{Admission: admission.Config{
		MaxConcurrent: 1, MaxQueue: 8, MaxBacklogSeconds: 0.15,
	}})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	cold, err := loadgen.Run(replayed, loadgen.RunOptions{BaseURL: hs.URL})
	if err != nil {
		panic(err)
	}
	warm, err := loadgen.Run(replayed, loadgen.RunOptions{BaseURL: hs.URL})
	if err != nil {
		panic(err)
	}

	// Conservation: every dispatched arrival must land in exactly one
	// server-side bucket. Handlers abandoned by impatient clients may
	// still be unwinding, so give the ledger a moment to balance.
	arrivals := int64(cold.Arrivals + warm.Arrivals)
	ok := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		snap := srv.Metrics().Snapshot()
		if snap.Admitted+snap.Shed+snap.QueueCancelled == arrivals {
			ok = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !ok {
		snap := srv.Metrics().Snapshot()
		panic(fmt.Sprintf("loadgen conservation violated: admitted %d + shed %d + queueCancelled %d != arrivals %d",
			snap.Admitted, snap.Shed, snap.QueueCancelled, arrivals))
	}

	return loadgenRecord{
		Seed:                 spec.Seed,
		DurationSeconds:      spec.Duration.Seconds(),
		Cohorts:              len(spec.Cohorts),
		TraceRequests:        len(tr.Requests),
		TraceFingerprint:     tr.Fingerprint(),
		TraceReplayIdentical: identical,
		ConservationOK:       ok,
		Cold:                 cold,
		Warm:                 warm,
	}
}

// p50 returns the median of xs (0 when empty).
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// traceExport captures span trees for a cold query, a warm (result-cache
// hit) replay, and a fresh-constant (plan-cache hit) query, and writes
// them as one Chrome trace-event file — each query gets its own pid lane
// in chrome://tracing / ui.perfetto.dev.
func traceExport(path string, smoke bool) error {
	rows, sampleK := 200000, int64(8000)
	if smoke {
		rows, sampleK = 50000, 2000
	}
	eng := buildTrafficEngine(rows, sampleK, 0, 0, false)
	queries := []string{
		`SELECT AVG(sessiontime) FROM traffic WHERE city = 'city1' ERROR WITHIN 10%`, // cold
		`SELECT AVG(sessiontime) FROM traffic WHERE city = 'city1' ERROR WITHIN 10%`, // result-cache hit
		`SELECT AVG(sessiontime) FROM traffic WHERE city = 'city2' ERROR WITHIN 10%`, // plan-cache hit
	}
	var traces []*telemetry.Trace
	for _, q := range queries {
		_, tr, err := eng.QueryTraced(q)
		if err != nil {
			return err
		}
		traces = append(traces, tr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := telemetry.WriteChrome(f, traces); err != nil {
		return err
	}
	// The CI bench smoke opens the file back up and checks it parses; do
	// it here too so a local run fails loudly on malformed output.
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !json.Valid(data) {
		return fmt.Errorf("exported trace is not valid JSON")
	}
	return nil
}

func compileBench(q string, schema *types.Schema) (*exec.Plan, error) {
	parsed, err := sqlparser.Parse(q)
	if err != nil {
		return nil, err
	}
	return exec.Compile(parsed, schema)
}

// persistenceBench measures the warm-boot win end to end: one engine
// life builds samples cold against a data directory and warms its
// caches, snapshots, dies; a second life boots over the same directory.
// Both lives time the stretch from table-loaded to fully-warm — sample
// stratification + query execution cold, segment load + warmup restore
// + cache-hit replay warm. The table load itself (identical ingest work
// in both lives) stays outside the clock. A second pass times segment
// loading alone, mmap vs the ReadFile fallback.
func persistenceBench(smoke bool) persistenceRecord {
	rows, sampleK, loadIters := 300000, int64(8000), 5
	if smoke {
		rows, sampleK, loadIters = 40000, 2000, 2
	}
	dir, err := os.MkdirTemp("", "blinkdb-bench-persist-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	warmQueries := []string{
		`SELECT AVG(sessiontime) FROM sessions WHERE city = 'city1' ERROR WITHIN 10%`,
		`SELECT SUM(sessiontime) FROM sessions WHERE os = 'os2' ERROR WITHIN 10%`,
		`SELECT COUNT(sessiontime) FROM sessions WHERE city = 'city3' OR os = 'os1' ERROR WITHIN 15%`,
		`SELECT AVG(sessiontime) FROM sessions WHERE os = 'os1' GROUP BY city ERROR WITHIN 20%`,
	}

	// boot runs one engine life: ingest (untimed), then the timed
	// stretch a restart can win back — CreateSamples (stratify or load),
	// RestoreWarmup, and the warm query set.
	boot := func() (*blinkdb.Engine, *blinkdb.RestoreReport, float64) {
		eng := blinkdb.Open(blinkdb.Config{
			Seed: 11, Scale: 1e4, CacheTables: true, DataDir: dir,
		})
		load := eng.CreateTable("sessions",
			blinkdb.Col("city", blinkdb.String),
			blinkdb.Col("os", blinkdb.String),
			blinkdb.Col("sessiontime", blinkdb.Float),
		)
		rng := rand.New(rand.NewSource(5))
		cityGen := zipf.NewGeneratorCDF(rng, 1.3, 100)
		osGen := zipf.NewGeneratorCDF(rng, 1.3, 20)
		for i := 0; i < rows; i++ {
			if err := load.Append(
				fmt.Sprintf("city%d", cityGen.Next()),
				fmt.Sprintf("os%d", osGen.Next()),
				rng.ExpFloat64()*100,
			); err != nil {
				panic(err)
			}
		}
		if err := load.Close(); err != nil {
			panic(err)
		}
		start := time.Now()
		if _, err := eng.CreateSamples("sessions", blinkdb.SampleOptions{
			BudgetFraction: 1.0,
			K:              sampleK,
			Templates: []blinkdb.Template{
				{Columns: []string{"city"}, Weight: 0.7},
				{Columns: []string{"os"}, Weight: 0.3},
			},
		}); err != nil {
			panic(err)
		}
		rep, err := eng.RestoreWarmup()
		if err != nil {
			panic(err)
		}
		for _, q := range warmQueries {
			if _, err := eng.Query(q); err != nil {
				panic(err)
			}
		}
		return eng, rep, time.Since(start).Seconds()
	}

	// Life 1: cold. Run the query set once more so the snapshot carries
	// steady-state (result-cache-hit) entries, then snapshot and die.
	eng1, _, cold := boot()
	for _, q := range warmQueries {
		if _, err := eng1.Query(q); err != nil {
			panic(err)
		}
	}
	if err := eng1.SnapshotWarmup(blinkdb.WarmupState{}); err != nil {
		panic(err)
	}
	if err := eng1.Close(); err != nil {
		panic(err)
	}

	// Life 2: warm boot over the same directory.
	eng2, rep, warm := boot()
	defer eng2.Close()
	if notes := eng2.PersistenceNotes(); len(notes) != 0 {
		panic(fmt.Sprintf("warm boot was not warm: %v", notes))
	}
	rec := persistenceRecord{
		Rows:            rows,
		ColdBootSeconds: cold,
		WarmBootSeconds: warm,
		WarmBootSpeedup: cold / warm,
	}
	if rep != nil {
		rec.RestoredPlans, rec.RestoredResults = rep.Plans, rep.Results
	}

	// Segment-load throughput: open every persisted sample segment and
	// materialize its tables, mmap vs the ReadFile fallback.
	var segs []string
	filepath.WalkDir(filepath.Join(dir, "samples"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".seg") {
			segs = append(segs, path)
		}
		return nil
	})
	loadAll := func(open func(string) (*blockfile.Segment, error)) float64 {
		var bytes int64
		start := time.Now()
		for it := 0; it < loadIters; it++ {
			for _, path := range segs {
				seg, err := open(path)
				if err != nil {
					panic(err)
				}
				for i := 0; i < seg.NumTables(); i++ {
					if _, err := seg.Table(i); err != nil {
						panic(err)
					}
				}
				bytes += seg.SizeBytes()
				seg.Close()
			}
		}
		return float64(bytes) / 1e6 / time.Since(start).Seconds()
	}
	for _, path := range segs {
		if st, err := os.Stat(path); err == nil {
			rec.SegmentMB += float64(st.Size()) / 1e6
		}
	}
	rec.MmapLoadMBps = loadAll(blockfile.Open)
	rec.ReadFileLoadMBps = loadAll(blockfile.OpenReadFile)
	return rec
}
