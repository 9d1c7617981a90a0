// Command benchmark is the repository's benchmark: it builds a seeded
// Conviva-shaped table through the public blinkdb API, serves it with
// internal/server on a loopback port inside this process, and drives four
// named workloads over real HTTP with a cheap closed-loop client, checking
// answers against exact ground truth.
//
//	go run ./benchmark                      every workload, end-to-end metrics
//	go run ./benchmark -trace 1             every workload, per-layer table
//	go run ./benchmark -workload dash_hot   one workload
//	go run ./benchmark -compare A.json B.json
//
// BENCHMARK.json at the repository root names the workloads and metrics
// and fixes each end-to-end metric's regression bound; README.md in this
// directory says why each exists. The driver's form is
//
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which runs one workload and prints, as the last line of standard
// output, one JSON object with correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	var (
		cfg      = config{clients: defaultClients(), setups: 3, checks: 300}
		duration = flag.Duration("duration", 10*time.Second, "timed phase per workload")
		seconds  = flag.Float64("seconds", 0, "timed phase in seconds (the driver's spelling of -duration)")
		name     = flag.String("workload", "", "run one workload: dash_hot, adhoc_scan, explore_cold or refresh_mixed (default all)")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer table, 0 = timed run printing end-to-end metrics")
		traceOut = flag.String("trace-out", "", "write the traced run's span trees as Chrome trace-event JSON")
		out      = flag.String("out", "", "write every metric, with run parameters, as JSON")
		repeat   = flag.Int("repeat", 1, "runs per workload; -compare reads their medians and, from 4 runs up, their quartile spread")
		cmp      = flag.Bool("compare", false, "compare two -out files given as arguments, against the bounds in BENCHMARK.json")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the table's rows and the requests' constants")
	flag.IntVar(&cfg.rows, "rows", 250000, "rows in the sessions table")
	flag.Parse()
	cfg.seconds = duration.Seconds()
	if *seconds > 0 {
		cfg.seconds = *seconds
	}
	if *cmp {
		os.Exit(runCompare(flag.Args()))
	}
	if flag.NArg() > 0 || cfg.rows < 1000 || cfg.seconds <= 0 || *repeat < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -h")
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}

	rep := newReport(cfg)
	correct := true
	for _, w := range selected {
		for i := 0; i < *repeat; i++ {
			var res *result
			var err error
			if *trace == 1 {
				path := *traceOut
				if path != "" && len(selected) > 1 { // one file per workload
					path = strings.TrimSuffix(path, ".json") + "." + w.name + ".json"
				}
				res, err = runTraced(cfg, w, path)
			} else {
				res, err = runTimed(cfg, w)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			printResult(os.Stdout, res)
			rep.Results = append(rep.Results, *res)
			correct = correct && res.Correct
		}
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if *name != "" {
		fmt.Println(driverLine(&rep.Results[len(rep.Results)-1]))
	}
	if !correct {
		os.Exit(1)
	}
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare takes two -out files")
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run -compare from the repository root:", err)
		return 2
	}
	a, err := readReport(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readReport(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if compare(os.Stdout, spec, a, b) > 0 {
		return 1
	}
	return 0
}
