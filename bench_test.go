// Benchmarks that regenerate each table and figure of the paper's
// evaluation (§6). Every BenchmarkFigure*/BenchmarkTable* iteration
// rebuilds the dataset, the optimizer-chosen sample families and the
// simulated cluster, then reproduces the experiment — so -benchtime=1x
// gives a full regeneration pass:
//
//	go test -bench=. -benchmem
//
// cmd/blinkdb-bench prints the same tables with their values.
package blinkdb

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"blinkdb/internal/experiments"
)

// benchCfg keeps the per-iteration cost of experiment benches manageable.
var benchCfg = experiments.Quick()

func runExperiment(b *testing.B, name string) {
	b.Helper()
	e := experiments.Find(name)
	if e == nil {
		b.Fatalf("unknown experiment %q", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// Figure 6(a): sample families per storage budget (Conviva).
func BenchmarkFigure6a(b *testing.B) { runExperiment(b, "6a") }

// Figure 6(b): sample families per storage budget (TPC-H).
func BenchmarkFigure6b(b *testing.B) { runExperiment(b, "6b") }

// Figure 6(c): BlinkDB vs Hive / Shark(±cache) response time.
func BenchmarkFigure6c(b *testing.B) { runExperiment(b, "6c") }

// Figure 7(a): per-template error across sampling strategies (Conviva).
func BenchmarkFigure7a(b *testing.B) { runExperiment(b, "7a") }

// Figure 7(b): per-template error across sampling strategies (TPC-H).
func BenchmarkFigure7b(b *testing.B) { runExperiment(b, "7b") }

// Figure 7(c): error-convergence time on rare subgroups.
func BenchmarkFigure7c(b *testing.B) { runExperiment(b, "7c") }

// Figure 8(a): actual vs requested response time.
func BenchmarkFigure8a(b *testing.B) { runExperiment(b, "8a") }

// Figure 8(b): actual vs requested error bound.
func BenchmarkFigure8b(b *testing.B) { runExperiment(b, "8b") }

// Figure 8(c): latency vs cluster size.
func BenchmarkFigure8c(b *testing.B) { runExperiment(b, "8c") }

// Table 5: stratified-sample storage overhead under Zipf distributions.
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }

// Table 5 Monte-Carlo cross-check against built samples.
func BenchmarkTable5MonteCarlo(b *testing.B) { runExperiment(b, "table5mc") }

// §1's offline-samples vs online-aggregation comparison.
func BenchmarkOnlineVsOffline(b *testing.B) { runExperiment(b, "ola") }

// Ablation benches for the design decisions called out in DESIGN.md §4.
func BenchmarkAblationMILP(b *testing.B) { runExperiment(b, "abl-milp") }
func BenchmarkAblationSkew(b *testing.B) { runExperiment(b, "abl-skew") }

// ---- engine-level operation benchmarks (end-to-end public API) ----

func benchEngine(b *testing.B, rows int) *Engine {
	b.Helper()
	eng := Open(Config{Scale: 1e4, Seed: 7, CacheTables: true})
	load := eng.CreateTable("sessions",
		Col("city", String), Col("os", String), Col("sessiontime", Float))
	rng := rand.New(rand.NewSource(3))
	cities := []string{"NY", "NY", "NY", "SF", "SF", "LA", "Austin", "Boise"}
	oses := []string{"Win7", "OSX", "Linux"}
	for i := 0; i < rows; i++ {
		if err := load.Append(cities[rng.Intn(len(cities))], oses[rng.Intn(3)],
			rng.ExpFloat64()*100); err != nil {
			b.Fatal(err)
		}
	}
	if err := load.Close(); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.CreateSamples("sessions", SampleOptions{
		BudgetFraction: 0.5,
		K:              1000,
		Templates: []Template{
			{Columns: []string{"city"}, Weight: 0.7},
			{Columns: []string{"os"}, Weight: 0.3},
		},
	}); err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkEngineSampleCreation measures the offline pipeline: optimizer +
// physical family construction over a 50k-row table.
func BenchmarkEngineSampleCreation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchEngine(b, 50000)
	}
}

// BenchmarkSetup times an engine's set-up over the explore shape at 250k
// rows: Loader.Append through Close as one span (load_s), so a batch still
// encoding when the last row is appended stays on the clock, then
// CreateSamples (samples_s). All the rows are generated and boxed before
// the clock starts and dropped before heap_mb is read. heap_mb is the live
// heap once set-up is done — two collections, then HeapAlloc — with the
// engine still reachable: the table and its samples.
func BenchmarkSetup(b *testing.B) {
	const rows = 250000
	b.ReportAllocs()
	var load, samples time.Duration
	var heap float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var all [][]any
		exploreRows(rows, rows, func(batch [][]any) { all = batch })
		eng := Open(Config{Scale: 1e4, CacheTables: true})
		loader := eng.CreateTable("sessions", exploreColumns()...)
		b.StartTimer()
		start := time.Now()
		for _, row := range all {
			if err := loader.Append(row...); err != nil {
				b.Fatal(err)
			}
		}
		if err := loader.Close(); err != nil {
			b.Fatal(err)
		}
		load += time.Since(start)
		all = nil
		start = time.Now()
		if _, err := eng.CreateSamples("sessions", exploreSampleOptions()); err != nil {
			b.Fatal(err)
		}
		samples += time.Since(start)
		b.StopTimer()
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap += float64(ms.HeapAlloc) / 1e6
		runtime.KeepAlive(eng)
		b.StartTimer()
	}
	b.ReportMetric(load.Seconds()/float64(b.N), "load_s")
	b.ReportMetric(samples.Seconds()/float64(b.N), "samples_s")
	b.ReportMetric(heap/float64(b.N), "heap_mb")
}

// BenchmarkEngineErrorBoundedQuery measures the ELP runtime end to end.
func BenchmarkEngineErrorBoundedQuery(b *testing.B) {
	eng := benchEngine(b, 50000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(
			`SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 10%`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTimeBoundedQuery measures the latency-profile path.
func BenchmarkEngineTimeBoundedQuery(b *testing.B) {
	eng := benchEngine(b, 50000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(
			`SELECT AVG(sessiontime) FROM sessions GROUP BY city WITHIN 3 SECONDS`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineExactQuery measures the unbounded full-scan path as the
// baseline for the two above.
func BenchmarkEngineExactQuery(b *testing.B) {
	eng := benchEngine(b, 50000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(
			`SELECT AVG(sessiontime) FROM sessions GROUP BY city`); err != nil {
			b.Fatal(err)
		}
	}
}
