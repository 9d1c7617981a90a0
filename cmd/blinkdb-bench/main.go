// Command blinkdb-bench regenerates the tables and figures of the paper's
// evaluation (§6) on the simulated cluster, and nothing else: performance
// is measured by the repo's benchmark (go run ./benchmark).
//
// Usage:
//
//	blinkdb-bench                  # run every experiment (full size)
//	blinkdb-bench -quick           # reduced dataset sizes
//	blinkdb-bench -run 6c,table5   # run a subset; an unknown name exits 2
//	blinkdb-bench -list            # list experiment names
//	blinkdb-bench -rows 200000     # override the Conviva row count
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"blinkdb/internal/experiments"
)

func main() {
	os.Exit(realMain())
}

// realMain is main with an exit code, so the profile defers run before
// the process exits.
func realMain() int {
	var (
		quick   = flag.Bool("quick", false, "use reduced dataset sizes")
		run     = flag.String("run", "", "comma-separated experiment names (default: all)")
		list    = flag.Bool("list", false, "list experiments and exit")
		rows    = flag.Int("rows", 0, "override Conviva row count")
		tpch    = flag.Int("tpch-rows", 0, "override TPC-H row count")
		seed    = flag.Int64("seed", 0, "override random seed")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		printNames(os.Stdout)
		return 0
	}
	selected, err := selectExperiments(*run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v; the experiments are:\n", err)
		printNames(os.Stderr)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
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

	failed := false
	for _, e := range selected {
		start := time.Now()
		tab, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.Name, err)
			failed = true
			continue
		}
		fmt.Println(tab)
		fmt.Printf("(%s regenerated in %.1fs)\n\n", e.Name, time.Since(start).Seconds())
	}
	if failed {
		return 1
	}
	return 0
}

// selectExperiments resolves -run's comma-separated names to experiments,
// in paper order whatever order they were named in. An empty run selects
// all of them; a name that matches none is an error.
func selectExperiments(run string) ([]experiments.Experiment, error) {
	all := experiments.All()
	if run == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, n := range strings.Split(run, ",") {
		n = strings.TrimSpace(n)
		if experiments.Find(n) == nil {
			return nil, fmt.Errorf("unknown experiment %q", n)
		}
		want[n] = true
	}
	var selected []experiments.Experiment
	for _, e := range all {
		if want[e.Name] {
			selected = append(selected, e)
		}
	}
	return selected, nil
}

func printNames(w io.Writer) {
	for _, e := range experiments.All() {
		fmt.Fprintf(w, "%-10s %s\n", e.Name, e.Description)
	}
}
