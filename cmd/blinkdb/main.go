// Command blinkdb is an interactive shell over the public blinkdb API. It
// generates a synthetic dataset (Conviva-like session log or TPC-H
// lineitem), loads it into a blinkdb.Engine, builds the optimizer-chosen
// sample families with CreateSamples, and answers ad-hoc bounded queries
// from stdin:
//
//	$ blinkdb -dataset conviva -rows 100000
//	blinkdb> SELECT COUNT(*) FROM sessions WHERE country = 'country02'
//	         ERROR WITHIN 10% AT CONFIDENCE 95%;
//
// Each answer is annotated with its confidence interval, the sample that
// produced it, and the latency attributed by the simulated 100-node
// cluster. A replayed script prints the same transcript at any GOMAXPROCS
// (testdata/session.golden).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"blinkdb"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
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

	if err := run(os.Stdin, os.Stdout, *dataset, *rows, *budget, *seed, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "blinkdb:", err)
		os.Exit(1)
	}
}

// run loads the dataset, then answers the statements and backslash
// commands read from in, writing the session to out.
func run(in io.Reader, out io.Writer, dataset string, rows int, budget float64, seed int64, tb float64) error {
	eng, table, err := load(out, dataset, rows, budget, seed, tb)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\ntable %q ready; pretending it is %.0f TB on a 100-node cluster.\n", table, tb)
	fmt.Fprintln(out, `enter SQL (end with ';'), e.g.:
  SELECT COUNT(*) FROM `+table+` ERROR WITHIN 10% AT CONFIDENCE 95%;
  SELECT AVG(sessiontimems) FROM sessions WHERE country = 'country02' GROUP BY endedflag WITHIN 5 SECONDS;
backslash commands: \stats  \trace on|off  \stream on|off  \help`)

	sh := &shell{eng: eng, out: out}
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() { fmt.Fprint(out, "blinkdb> ") }
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		// Backslash commands are line-oriented: only recognized when no
		// SQL statement is in progress, and they never need a ';'.
		if buf.Len() == 0 && strings.HasPrefix(strings.TrimSpace(line), `\`) {
			if err := sh.command(strings.TrimSpace(line)); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			fmt.Fprint(out, "      -> ")
			continue
		}
		src := strings.TrimSpace(buf.String())
		buf.Reset()
		if src == ";" || src == "" {
			prompt()
			continue
		}
		if err := sh.execute(src); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
		prompt()
	}
	fmt.Fprintln(out)
	return scanner.Err()
}

// load generates the dataset, copies its rows into a new engine whose
// Scale makes the table pretend to be tb terabytes (the engine sizes its
// blocks from that), and builds its samples from the dataset's templates.
func load(out io.Writer, dataset string, rows int, budget float64, seed int64, tb float64) (*blinkdb.Engine, string, error) {
	fmt.Fprintf(out, "loading %s dataset (%d rows)...\n", dataset, rows)
	var data *workload.Dataset
	switch dataset {
	case "conviva":
		data = workload.Conviva(workload.ConvivaConfig{Rows: rows, Seed: seed})
	case "tpch":
		data = workload.TPCH(workload.TPCHConfig{Rows: rows, Seed: seed})
	default:
		return nil, "", fmt.Errorf("unknown dataset %q", dataset)
	}
	src := data.Table
	eng := blinkdb.Open(blinkdb.Config{Scale: tb * 1e12 / float64(src.Bytes()), Seed: seed})

	cols := make([]blinkdb.ColumnDef, len(src.Schema.Columns))
	for i, c := range src.Schema.Columns {
		cols[i] = blinkdb.Col(c.Name, columnTypes[c.Kind])
	}
	loader := eng.CreateTable(src.Name, cols...)
	vals := make([]any, len(cols))
	var err error
	src.Scan(func(r types.Row, _ storage.RowMeta) bool {
		for i, v := range r {
			vals[i] = goValue(v)
		}
		err = loader.Append(vals...)
		return err == nil
	})
	if err != nil {
		return nil, "", err
	}
	if err := loader.Close(); err != nil {
		return nil, "", err
	}

	opts := blinkdb.SampleOptions{
		BudgetFraction: budget, K: int64(max(64, rows/200)), Resolutions: 8, CapRatio: 2,
		UniformFraction: 0.2,
	}
	for _, t := range data.Templates {
		opts.Templates = append(opts.Templates, blinkdb.Template{Columns: t.Columns.Columns(), Weight: t.Weight})
	}
	fmt.Fprintf(out, "solving sample-selection MILP (budget %.0f%% of table)...\n", budget*100)
	rep, err := eng.CreateSamples(src.Name, opts)
	if err != nil {
		return nil, "", err
	}
	for _, f := range rep.Families {
		name := "uniform"
		if len(f.Columns) > 0 {
			name = fmt.Sprint(f.Columns)
		}
		fmt.Fprintf(out, "  built %s (%d resolutions, %d rows, %.1f%% of table)\n",
			name, f.Resolutions, f.Rows, 100*float64(f.StorageBytes)/float64(src.Bytes()))
	}
	return eng, src.Name, nil
}

var columnTypes = map[types.Kind]blinkdb.ColumnType{
	types.KindInt: blinkdb.Int, types.KindFloat: blinkdb.Float,
	types.KindString: blinkdb.String, types.KindBool: blinkdb.Bool,
}

// goValue is v in the Go form Loader.Append takes.
func goValue(v types.Value) any {
	switch v.Kind {
	case types.KindInt:
		return v.I
	case types.KindFloat:
		return v.F
	case types.KindString:
		return v.S
	case types.KindBool:
		return v.I != 0
	}
	return nil
}

// shell holds REPL state that outlives a single statement: the engine,
// the \trace and \stream toggles, and the stats baseline from the
// previous \stats call (so each \stats also shows a delta window).
type shell struct {
	eng       *blinkdb.Engine
	out       io.Writer
	tracing   bool
	streaming bool
	prev      *blinkdb.EngineStats
}

// command dispatches a backslash command.
func (sh *shell) command(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case `\stats`:
		sh.printStats()
		return nil
	case `\trace`, `\stream`:
		if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
			return fmt.Errorf(`usage: %s on|off`, fields[0])
		}
		toggle, name := &sh.tracing, "tracing"
		if fields[0] == `\stream` {
			toggle, name = &sh.streaming, "streaming"
		}
		*toggle = fields[1] == "on"
		fmt.Fprintf(sh.out, "  %s %s\n", name, fields[1])
		return nil
	case `\help`, `\h`, `\?`:
		fmt.Fprint(sh.out, help)
		return nil
	default:
		return fmt.Errorf(`unknown command %s (try \help)`, fields[0])
	}
}

// help lists backslash commands and the bound-clause grammar.
const help = `  \stats           serving counters, cache hit rates, top templates by p99
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
`

// printStats shows cumulative serving counters, the delta since the last
// \stats, and the top templates by p99 latency.
func (sh *shell) printStats() {
	out, cur := sh.out, sh.eng.Stats()
	fmt.Fprintf(out, "  queries: plan execs %d (probes %d), prepares %d\n",
		cur.PlanExecs, cur.ProbeExecs, cur.Prepares)
	fmt.Fprintf(out, "  plan cache: %d hits / %d misses (%.0f%% hit rate)\n",
		cur.PlanCacheHits, cur.PlanCacheMisses, 100*cur.PlanCacheHitRate())
	fmt.Fprintf(out, "  result cache: %d hits / %d misses / %d shared (%.0f%% served without executing)\n",
		cur.ResultCacheHits, cur.ResultCacheMisses, cur.ResultCacheShared, 100*cur.ResultCacheHitRate())
	if len(cur.AnswersByLevel) > 0 {
		fmt.Fprint(out, "  answers by level:")
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
			fmt.Fprintf(out, " %s=%d", name, cur.AnswersByLevel[l])
		}
		fmt.Fprintln(out)
	}
	if sh.prev != nil {
		d := cur.Delta(*sh.prev)
		fmt.Fprintf(out, "  since last \\stats: %d execs, plan cache %d/%d, result cache %d/%d/%d\n",
			d.PlanExecs, d.PlanCacheHits, d.PlanCacheMisses, d.ResultCacheHits, d.ResultCacheMisses, d.ResultCacheShared)
	}
	sh.prev = &cur

	snap := sh.eng.Telemetry()
	if len(snap.Templates) == 0 {
		fmt.Fprintln(out, "  no per-template telemetry yet")
		return
	}
	sort.Slice(snap.Templates, func(i, j int) bool {
		return snap.Templates[i].Latency.P99 > snap.Templates[j].Latency.P99
	})
	fmt.Fprintln(out, "  top templates by p99 latency:")
	for _, t := range snap.Templates[:min(5, len(snap.Templates))] {
		key := strings.Join(strings.Fields(t.Key), " ")
		if len(key) > 88 {
			key = key[:85] + "..."
		}
		fmt.Fprintf(out, "    %6d q  p50 %7.3fms  p95 %7.3fms  p99 %7.3fms  pred/obs bound %.2f  %s\n",
			t.Queries, t.Latency.P50*1e3, t.Latency.P95*1e3, t.Latency.P99*1e3,
			t.PredictedOverObservedBound, key)
	}
}

// execute answers one statement — streamed when \stream is on, with its
// span tree when \trace is on — and prints the answer: its cells, one
// [sample; reason] line per disjunct and its simulated latency.
func (sh *shell) execute(src string) error {
	if f := strings.Fields(src); sh.tracing && !strings.EqualFold(f[0], "EXPLAIN") {
		src = "EXPLAIN ANALYZE " + src
	}
	var res *blinkdb.Result
	var err error
	if sh.streaming {
		err = sh.eng.QueryStream(context.Background(), src, func(u blinkdb.StreamUpdate) error {
			if u.Final {
				res = u.Result
				return nil
			}
			fmt.Fprintf(sh.out, "  ~ refinement %d (L%d): %d groups, worst rel err %.1f%%, sim latency %.2fs\n",
				u.Seq, u.Level, len(u.Result.Rows), 100*u.Result.MaxRelErr(), u.Result.SimLatencySeconds)
			return nil
		})
	} else {
		res, err = sh.eng.Query(src)
	}
	if err != nil {
		return err
	}
	out := sh.out
	for _, row := range res.Rows {
		fmt.Fprintf(out, "  %-24s", row.Group)
		for _, c := range row.Cells {
			if c.Exact {
				fmt.Fprintf(out, "  %s = %.4g (exact)", c.Name, c.Value)
			} else {
				fmt.Fprintf(out, "  %s = %.4g ± %.3g (%.0f%% conf, %.1f%% rel)",
					c.Name, c.Value, c.Bound, res.Confidence*100, 100*c.RelErr)
			}
		}
		fmt.Fprintln(out)
	}
	if len(res.Rows) == 0 {
		fmt.Fprintln(out, "  (no rows)")
	}
	// Both fields join one entry per disjunct with " | ".
	reasons := strings.Split(res.Explanation, " | ")
	for i, sample := range strings.Split(res.SampleDescription, " | ") {
		fmt.Fprintf(out, "  [%s; %s]\n", sample, reasons[i])
	}
	fmt.Fprintf(out, "  simulated latency: %.2fs; scanned %d sample rows\n",
		res.SimLatencySeconds, res.RowsScanned)
	fmt.Fprint(out, res.Trace) // empty unless EXPLAIN ANALYZE
	return nil
}
