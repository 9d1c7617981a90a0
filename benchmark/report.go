package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// metric is one named measurement with its unit and the number of
// samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// result is one workload's run, timed or traced.
type result struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics are the ones BENCHMARK.json names for this kind of run:
	// end-to-end for a timed run, per-layer for a traced one.
	Metrics []metric `json:"metrics"`
	// Extra are ungated companions (p99, the *_miss_share complements,
	// counters read after the timed phase).
	Extra []metric `json:"extra,omitempty"`
	// Notes list failed checks and missed sizing targets.
	Notes []string `json:"notes,omitempty"`
}

func (r *result) add(name, unit string, v float64, n int) {
	r.Metrics = append(r.Metrics, metric{name, unit, v, n})
}

func (r *result) addExtra(name, unit string, v float64, n int) {
	r.Extra = append(r.Extra, metric{name, unit, v, n})
}

func (r *result) get(name string) (float64, bool) {
	for _, ms := range [][]metric{r.Metrics, r.Extra} {
		for _, m := range ms {
			if m.Name == name {
				return m.Value, true
			}
		}
	}
	return 0, false
}

// report is the -out file: every named metric plus what is needed to
// reproduce the run.
type report struct {
	Seed       int64    `json:"seed"`
	Rows       int      `json:"rows"`
	Seconds    float64  `json:"seconds"`
	Clients    int      `json:"clients"`
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Results    []result `json:"results"`
}

func newReport(cfg config) *report {
	return &report{
		Seed: cfg.seed, Rows: cfg.rows, Seconds: cfg.seconds, Clients: cfg.clients,
		Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// commit names the checkout, "unknown" outside a git repository (the
// driver's checkouts are not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printResult writes one workload's metrics as a table.
func printResult(w io.Writer, r *result) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "\n== %s (%s)  correct=%v attempted=%d failed=%d\n", r.Workload, kind, r.Correct, r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-38s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	if len(r.Extra) > 0 {
		fmt.Fprintln(w, "  -- ungated")
		for _, m := range r.Extra {
			fmt.Fprintf(w, "  %-38s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  ! %s\n", n)
	}
}

// driverLine is the last line of standard output in driver mode: the
// keys and shapes are the driver's contract.
func driverLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(1, r.Attempted), r.Failed, map[string]mv{}}
	for _, m := range r.Metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.Name] = mv{v, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats, strings and bools always marshal
	}
	return string(line)
}

// benchmarkSpec is the part of BENCHMARK.json -compare and the tests read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compare prints, per gated metric × workload, both sets' medians, the
// relative difference (positive = B worse), the bound, and a verdict:
// regressed when B is worse than A by more than the bound, unresolved
// when either set's own quartile spread is wider than the bound (the
// runs cannot tell), ok otherwise. A file holds -repeat runs of each
// workload; a set of fewer than four has no quartiles, so its spread
// counts as 0 and it can never be unresolved. It returns the number of regressed rows.
func compare(w io.Writer, spec *benchmarkSpec, a, b *report) int {
	values := func(r *report, workload, name string) []float64 {
		var out []float64
		for _, res := range r.Results {
			if res.Workload != workload || res.Traced {
				continue
			}
			if v, ok := res.get(name); ok {
				out = append(out, v)
			}
		}
		return out
	}
	spread := func(v []float64) float64 {
		if len(v) < 4 {
			return 0
		}
		s := sortedCopy(v)
		med := percentile(s, 0.5)
		if med == 0 {
			return 0
		}
		return (percentile(s, 0.75) - percentile(s, 0.25)) / math.Abs(med)
	}
	regressed := 0
	fmt.Fprintf(w, "%-14s %-24s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "A", "B", "diff", "bound", "spread", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-24s %12s %12s %8s %7.3f %7s  missing\n", wl.Name, m.Name, "-", "-", "-", m.Bound, "-")
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / math.Abs(ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case sp > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-24s %12.6g %12.6g %+7.2f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, m.Name, ma, mb, worse*100, m.Bound*100, sp*100, verdict)
		}
	}
	return regressed
}
