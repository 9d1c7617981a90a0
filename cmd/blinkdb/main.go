// Command blinkdb is an interactive shell for BlinkDB-Go. It loads a
// synthetic dataset (Conviva-like session log or TPC-H lineitem), builds
// the optimizer-chosen sample families, and answers ad-hoc bounded queries
// from stdin:
//
//	$ blinkdb -dataset conviva -rows 100000
//	blinkdb> SELECT COUNT(*) FROM sessions WHERE country = 'country02'
//	         ERROR WITHIN 10% AT CONFIDENCE 95%;
//
// Each answer is annotated with its confidence interval, the sample that
// produced it, and the latency attributed by the simulated 100-node
// cluster.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"blinkdb/internal/catalog"
	"blinkdb/internal/cluster"
	"blinkdb/internal/elp"
	"blinkdb/internal/optimizer"
	"blinkdb/internal/sample"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/telemetry"
	"blinkdb/internal/workload"
)

func main() {
	var (
		dataset = flag.String("dataset", "conviva", "conviva or tpch")
		rows    = flag.Int("rows", 100000, "fact table rows")
		budget  = flag.Float64("budget", 0.5, "sample storage budget as a fraction of the table")
		seed    = flag.Int64("seed", 42, "random seed")
		scale   = flag.Float64("tb", 17, "pretend logical dataset size in TB (latency model)")
	)
	flag.Parse()

	if err := run(*dataset, *rows, *budget, *seed, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "blinkdb:", err)
		os.Exit(1)
	}
}

func run(dataset string, rows int, budget float64, seed int64, tb float64) error {
	fmt.Printf("loading %s dataset (%d rows)...\n", dataset, rows)
	gen := func(rowsPerBlock int) (*workload.Dataset, error) {
		switch dataset {
		case "conviva":
			return workload.Conviva(workload.ConvivaConfig{Rows: rows, Seed: seed, RowsPerBlock: rowsPerBlock}), nil
		case "tpch":
			return workload.TPCH(workload.TPCHConfig{Rows: rows, Seed: seed, RowsPerBlock: rowsPerBlock}), nil
		default:
			return nil, fmt.Errorf("unknown dataset %q", dataset)
		}
	}
	// Size blocks so one physical block ≈ one 256 MB HDFS block at the
	// pretend scale (two passes: measure row width, then rebuild).
	data, err := gen(512)
	if err != nil {
		return err
	}
	scale := tb * 1e12 / float64(data.Table.Bytes())
	avgRow := float64(data.Table.Bytes()) / float64(data.Table.NumRows())
	blockRows := int(256e6 / (scale * avgRow))
	if blockRows < 2 {
		blockRows = 2
	}
	if blockRows > 4096 {
		blockRows = 4096
	}
	if data, err = gen(blockRows); err != nil {
		return err
	}

	k := int64(rows / 200)
	if k < 64 {
		k = 64
	}
	cfg := optimizer.Config{
		K: k, CapRatio: 2, Resolutions: 8, MinCap: 2,
		BudgetBytes: int64(float64(data.Table.Bytes()) * budget),
		ChurnFrac:   -1,
		Build: sample.BuildConfig{
			RowsPerBlock: blockRows, Nodes: 100, Place: storage.InMemory, Seed: seed,
		},
	}
	fmt.Printf("solving sample-selection MILP (budget %.0f%% of table)...\n", budget*100)
	plan, err := optimizer.ChooseSamples(data.Table, data.OptimizerTemplates(), cfg)
	if err != nil {
		return err
	}
	fams, err := optimizer.BuildFamilies(data.Table, plan, cfg, 0.2)
	if err != nil {
		return err
	}
	cat := catalog.New()
	cat.Register(data.Table)
	for _, f := range fams {
		if err := cat.AddFamily(data.Table.Name, f); err != nil {
			return err
		}
		fmt.Printf("  built %s (%d rows, %.1f%% of table)\n",
			f, f.StorageRows(), 100*float64(f.StorageBytes())/float64(data.Table.Bytes()))
	}

	clus := cluster.New(cluster.PaperConfig())
	reg := telemetry.NewRegistry()
	rt := elp.New(cat, clus, elp.Options{
		Scale:   scale,
		Workers: runtime.GOMAXPROCS(0),
		// Interactive sessions are template-heavy (users tweak constants
		// and bounds on the same query); cache prepared templates so
		// replays skip the probe work, and cache completed answers so
		// re-running the exact same query (a very common REPL gesture) is
		// instant. EXPLAIN output shows cache=hit|miss and
		// result=hit|miss|shared.
		PlanCacheSize:   256,
		ResultCacheSize: 1024,
	})

	fmt.Printf("\ntable %q ready; pretending it is %.0f TB on a 100-node cluster.\n", data.Table.Name, tb)
	fmt.Println(`enter SQL (end with ';'), e.g.:
  SELECT COUNT(*) FROM ` + data.Table.Name + ` ERROR WITHIN 10% AT CONFIDENCE 95%;
  SELECT AVG(sessiontimems) FROM sessions WHERE country = 'country02' GROUP BY endedflag WITHIN 5 SECONDS;
backslash commands: \stats  \trace on|off  \stream on|off  \help`)

	sh := &shell{rt: rt, reg: reg}
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() { fmt.Print("blinkdb> ") }
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		// Backslash commands are line-oriented: only recognized when no
		// SQL statement is in progress, and they never need a ';'.
		if buf.Len() == 0 && strings.HasPrefix(strings.TrimSpace(line), `\`) {
			if err := sh.command(strings.TrimSpace(line)); err != nil {
				fmt.Println("error:", err)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			fmt.Print("      -> ")
			continue
		}
		src := strings.TrimSpace(buf.String())
		buf.Reset()
		if src == ";" || src == "" {
			prompt()
			continue
		}
		if err := sh.execute(src); err != nil {
			fmt.Println("error:", err)
		}
		prompt()
	}
	fmt.Println()
	return scanner.Err()
}

// shell holds REPL state that outlives a single statement: the runtime,
// the telemetry registry, the \trace toggle, and the stats baseline from
// the previous \stats call (so each \stats also shows a delta window).
type shell struct {
	rt        *elp.Runtime
	reg       *telemetry.Registry
	tracing   bool
	streaming bool
	prev      elp.Stats
	hasPrev   bool
}

// command dispatches a backslash command.
func (sh *shell) command(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case `\stats`:
		sh.printStats()
		return nil
	case `\trace`:
		if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
			return fmt.Errorf(`usage: \trace on|off`)
		}
		sh.tracing = fields[1] == "on"
		fmt.Printf("  tracing %s\n", fields[1])
		return nil
	case `\stream`:
		if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
			return fmt.Errorf(`usage: \stream on|off`)
		}
		sh.streaming = fields[1] == "on"
		fmt.Printf("  streaming %s\n", fields[1])
		return nil
	case `\help`, `\h`, `\?`:
		sh.printHelp()
		return nil
	default:
		return fmt.Errorf(`unknown command %s (try \help)`, fields[0])
	}
}

// printHelp lists backslash commands and the bound-clause grammar.
func (sh *shell) printHelp() {
	fmt.Print(`  \stats           serving counters, cache hit rates, top templates by p99
  \trace on|off    print the query-lifecycle span tree after each answer
  \stream on|off   stream refinements: one line per resolution along the
                   delta chain, final answer printed in full (the final is
                   bit-identical to the non-streaming answer)
  \help            this text

  bound clauses (either order, at the end of a query):
    ERROR WITHIN 10% AT CONFIDENCE 95%    relative error bound
    ERROR WITHIN 500                      absolute error bound
    WITHIN 5 SECONDS                      response-time bound
  prefix a query with EXPLAIN ANALYZE to capture its span tree.
`)
}

// printStats shows cumulative serving counters, the delta since the last
// \stats, and the top templates by p99 latency.
func (sh *shell) printStats() {
	cur := sh.rt.Stats()
	fmt.Printf("  queries: plan execs %d (probes %d), prepares %d\n",
		cur.PlanExecs, cur.ProbeExecs, cur.Prepares)
	fmt.Printf("  plan cache: %d hits / %d misses (%.0f%% hit rate)\n",
		cur.CacheHits, cur.CacheMisses, 100*cur.HitRate())
	fmt.Printf("  result cache: %d hits / %d misses / %d shared (%.0f%% served without executing)\n",
		cur.ResultHits, cur.ResultMisses, cur.ResultShared, 100*cur.ResultHitRate())
	if len(cur.AnswersByLevel) > 0 {
		fmt.Print("  answers by level:")
		levels := make([]int, 0, len(cur.AnswersByLevel))
		for l := range cur.AnswersByLevel {
			levels = append(levels, l)
		}
		sort.Ints(levels)
		for _, l := range levels {
			name := fmt.Sprintf("L%d", l)
			if l == -1 {
				name = "base"
			}
			fmt.Printf(" %s=%d", name, cur.AnswersByLevel[l])
		}
		fmt.Println()
	}
	if sh.hasPrev {
		d := cur.Delta(sh.prev)
		fmt.Printf("  since last \\stats: %d execs, plan cache %d/%d, result cache %d/%d/%d\n",
			d.PlanExecs, d.CacheHits, d.CacheMisses, d.ResultHits, d.ResultMisses, d.ResultShared)
	}
	sh.prev, sh.hasPrev = cur, true

	snap := sh.reg.Snapshot()
	if len(snap.Templates) == 0 {
		fmt.Println("  no per-template telemetry yet")
		return
	}
	sort.Slice(snap.Templates, func(i, j int) bool {
		return snap.Templates[i].Latency.P99 > snap.Templates[j].Latency.P99
	})
	top := snap.Templates
	if len(top) > 5 {
		top = top[:5]
	}
	fmt.Println("  top templates by p99 latency:")
	for _, t := range top {
		fmt.Printf("    %6d q  p50 %7.3fms  p95 %7.3fms  p99 %7.3fms  pred/obs bound %.2f  %s\n",
			t.Queries, t.Latency.P50*1e3, t.Latency.P95*1e3, t.Latency.P99*1e3,
			t.PredictedOverObservedBound, compactKey(t.Key))
	}
}

// compactKey trims a normalized template key for one-line display.
func compactKey(key string) string {
	key = strings.Join(strings.Fields(key), " ")
	if len(key) > 88 {
		key = key[:85] + "..."
	}
	return key
}

func (sh *shell) execute(src string) error {
	q, err := sqlparser.Parse(src)
	if err != nil {
		return err
	}
	var tr *telemetry.Trace
	if sh.tracing || q.Analyze {
		tr = telemetry.New("query")
	}
	started := time.Now()
	nsp := tr.Root().Child("normalize")
	key, params := sqlparser.Normalize(q)
	nsp.End()
	var emit func(*elp.Response, int) error
	if sh.streaming {
		seq := 0
		emit = func(resp *elp.Response, level int) error {
			fmt.Printf("  ~ refinement %d (L%d): %d groups, worst rel err %.1f%%, sim latency %.2fs\n",
				seq, level, len(resp.Result.Groups), 100*worstRelErr(resp), resp.SimLatency)
			seq++
			return nil
		}
	}
	resp, err := sh.rt.Run(context.Background(), q, key, params, tr, emit)
	if err == nil && resp.Shared() {
		msp := tr.Root().Child("materialize")
		resp = resp.Materialize() // so its reasons read result=hit
		msp.End()
	}
	if err == nil {
		sh.reg.Observe(key, elp.ObservationFor(resp, time.Since(started).Seconds()))
	}
	tr.Finish()
	if err != nil {
		return err
	}
	for _, g := range resp.Result.Groups {
		fmt.Printf("  %-24s", g.KeyString())
		for i, e := range g.Estimates {
			name := ""
			if i < len(q.Aggs) {
				name = q.Aggs[i].Alias
			}
			if e.Exact {
				fmt.Printf("  %s = %.4g (exact)", name, e.Point)
			} else {
				fmt.Printf("  %s = %.4g ± %.3g (%.0f%% conf, %.1f%% rel)",
					name, e.Point, e.Bound, resp.Confidence*100, 100*e.RelErr())
			}
		}
		fmt.Println()
	}
	if len(resp.Result.Groups) == 0 {
		fmt.Println("  (no rows)")
	}
	for _, d := range resp.Decisions {
		src := "base table"
		if !d.UsedBase {
			src = d.View.String()
		}
		fmt.Printf("  [%s; %s]\n", src, d.Reason)
	}
	fmt.Printf("  simulated latency: %.2fs; scanned %d sample rows\n",
		resp.SimLatency, resp.Result.RowsScanned)
	if tr != nil {
		fmt.Print(tr.Render())
	}
	return nil
}

// worstRelErr is the worst finite relative error across a response's
// estimates (0 when every cell is exact or empty).
func worstRelErr(resp *elp.Response) float64 {
	worst := 0.0
	for _, g := range resp.Result.Groups {
		for _, e := range g.Estimates {
			if re := e.RelErr(); re > worst && !math.IsInf(re, 1) {
				worst = re
			}
		}
	}
	return worst
}
