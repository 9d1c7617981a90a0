package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"

	"blinkdb/internal/telemetry"
)

func TestRequestSequenceFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.requests(7), w.requests(7), w.requests(8)
		if len(a) != len(b) || len(a) <= 1024 {
			t.Fatalf("%s: %d and %d requests, want equal and longer than the result cache", w.name, len(a), len(b))
		}
		differs := false
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: request %d differs between two builds with one seed", w.name, i)
			}
			if a[i].stream != (i%4 == 3) {
				t.Fatalf("%s: request %d stream=%v, want every 4th", w.name, i, a[i].stream)
			}
			differs = differs || !bytes.Equal(a[i].body, c[i].body)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", w.name)
		}
	}
}

func TestExploreTemplatesOutnumberPlanCache(t *testing.T) {
	seen := map[string]bool{}
	for _, tm := range exploreTemplates() {
		seen[tm.format] = true
	}
	if len(seen) != 648 {
		t.Fatalf("%d distinct explore templates, want 648 (2.5× the 256-entry plan cache)", len(seen))
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {1, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestSelfTime(t *testing.T) {
	span := interval{10, 20}
	for _, c := range []struct {
		name string
		kids []interval
		want float64
	}{
		{"no children", nil, 10},
		{"sequential", []interval{{11, 13}, {15, 18}}, 5},
		{"overlapping", []interval{{11, 15}, {13, 18}}, 3},
		{"concurrent workers", []interval{{12, 16}, {12, 16}, {12, 17}}, 5},
		{"nested in a sibling", []interval{{11, 19}, {12, 13}}, 2},
		{"clipped to the span", []interval{{5, 12}, {18, 25}}, 6},
		{"outside the span", []interval{{0, 5}, {30, 40}}, 10},
	} {
		if got := selfTime(span, c.kids); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

// The fold must hand every span's time to exactly one layer: buckets sum
// to the root's duration, probes keep their scans, and a final scan splits
// into scan and merge.
func TestFoldSpanPartitionsTheTree(t *testing.T) {
	tr := telemetry.New("query")
	root := tr.Root()
	root.Child("normalize").End()
	root.Child("result-cache lookup").End()
	ex := root.Child("execute")
	ex.Child("plan-cache lookup").End()
	prep := ex.Child("prepare")
	probe := prep.Child("probe uniform")
	ps := probe.Child("scan blocks=3")
	ps.Child("merge").End()
	ps.End()
	probe.End()
	prep.End()
	bind := ex.Child("bind+scan")
	sc := bind.Child("scan blocks=9")
	sc.Child("shard node=1 ranges=2").End()
	sc.Child("merge").End()
	sc.End()
	bind.End()
	ex.End()
	root.Child("materialize").End()
	tr.Finish()

	buckets := map[string]float64{}
	foldSpan(root, buckets)
	sum := 0.0
	for name, us := range buckets {
		if us < 0 {
			t.Errorf("%s = %v µs, want ≥ 0", name, us)
		}
		sum += us
	}
	if want := root.Duration().Seconds() * 1e6; math.Abs(sum-want) > 1e-6*want+1e-9 {
		t.Errorf("buckets sum to %v µs, root lasted %v µs", sum, want)
	}
	for _, name := range []string{"elp.normalize_us", "resultcache.lookup_us", "plancache.lookup_us", "elp.prepare_us",
		"elp.probe_us", "elp.bind_us", "exec.scan_us", "exec.merge_us", "elp.materialize_us", "engine.other_us"} {
		if _, ok := buckets[name]; !ok {
			t.Errorf("no bucket %s", name)
		}
	}
	if got, want := buckets["elp.probe_us"], probe.Duration().Seconds()*1e6; got != want {
		t.Errorf("elp.probe_us = %v, want the probe's whole subtree %v", got, want)
	}
}

// A heavy generator must never again pass for a slow server.
func TestClientAllocatesUnder32KiBPerRequest(t *testing.T) {
	w, _ := findWorkload("dash_hot")
	got, err := measureStub(4096, 400, w.requests(1)[0].body)
	if err != nil {
		t.Fatal(err)
	}
	if got.allocKBPerOp >= 32 {
		t.Errorf("client + stub allocate %.1f KiB per request, want < 32", got.allocKBPerOp)
	}
	if got.p50US <= 0 {
		t.Errorf("stub p50 = %v µs", got.p50US)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchmarkSpec{
		EndToEnd: []specMetric{
			{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.10},
			{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "mem_mb", Unit: "MB", Better: "lower", Bound: 0.05},
		},
	}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"dash_hot"})
	set := func(qps, p50, mem []float64) *report {
		r := &report{}
		for i := range qps {
			res := result{Workload: "dash_hot"}
			res.add("qps", "1/s", qps[i], 1)
			res.add("query_p50_ms", "ms", p50[i], 1)
			res.add("mem_mb", "MB", mem[i], 1)
			r.Results = append(r.Results, res)
		}
		return r
	}
	a := set([]float64{1000, 1010, 990, 1005}, []float64{1.0, 1.0, 1.0, 1.0}, []float64{20, 20, 20, 20})
	b := set([]float64{800, 805, 795, 802}, []float64{0.9, 1.5, 0.6, 1.2}, []float64{20.1, 20.1, 20.1, 20.1})
	var out bytes.Buffer
	regressed := compare(&out, spec, a, b)
	if regressed != 1 {
		t.Errorf("%d regressed rows, want 1:\n%s", regressed, out.String())
	}
	for _, want := range []string{"qps", "regressed", "unresolved", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 || !strings.HasSuffix(lines[1], "regressed") ||
		!strings.HasSuffix(lines[2], "unresolved") || !strings.HasSuffix(lines[3], "ok") {
		t.Errorf("verdicts, in order, want regressed, unresolved, ok:\n%s", out.String())
	}
}

// tinyConfig is the issue's tiny end-to-end run, cut to what tier-1 can
// afford: 20,000 rows and timed phases of a fraction of a second.
func tinyConfig(seconds float64) config {
	return config{seed: 3, rows: 20000, seconds: seconds, clients: defaultClients(), setups: 1, checks: 120}
}

func specNames(t *testing.T) (workloadNames, endToEnd, perLayer []string) {
	t.Helper()
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return
}

func checkNames(t *testing.T, res *result, want []string, units map[string]string) {
	t.Helper()
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(driverLine(res)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d; notes %v", res.Workload, line.Correct, line.Attempted, line.Failed, res.Notes)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d: %v", res.Workload, len(line.Metrics), len(want), sortedNames(res.Metrics))
	}
	for _, name := range want {
		m, ok := line.Metrics[name]
		if !ok {
			t.Errorf("%s: metric %s named in BENCHMARK.json is not in the output", res.Workload, name)
		} else if m.Unit != units[name] {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", res.Workload, name, m.Unit, units[name])
		}
	}
}

func specUnits(t *testing.T) map[string]string {
	t.Helper()
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return units
}

// Every workload and end-to-end metric BENCHMARK.json names comes out of a
// tiny timed run, correct, and the check pass's counts repeat exactly.
func TestTinyTimedRun(t *testing.T) {
	names, endToEnd, _ := specNames(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	units := specUnits(t)
	for _, name := range names {
		w, ok := findWorkload(name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark lacks", name)
		}
		first, err := runTimed(tinyConfig(0.4), w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkNames(t, first, endToEnd, units)
		for _, m := range first.Metrics {
			if m.Value == 0 || math.IsNaN(m.Value) {
				t.Errorf("%s: end-to-end metric %s = %v, want never 0", name, m.Name, m.Value)
			}
		}
		again, err := runTimed(tinyConfig(0.2), w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, count := range []string{"bound_met_share", "coverage_share", "rows_scanned_per_query", "elp.missing_group_share"} {
			a, _ := first.get(count)
			b, _ := again.get(count)
			if a != b {
				t.Errorf("%s: %s = %v then %v: the check pass must repeat exactly", name, count, a, b)
			}
		}
	}
}

// The traced run prints every per-layer metric BENCHMARK.json names and
// passes its own determinism checks (equal counters and answers on both
// passes, a bit-identical answer after the warm boot).
func TestTinyTracedRun(t *testing.T) {
	_, _, perLayer := specNames(t)
	w, _ := findWorkload("refresh_mixed")
	res, err := runTraced(tinyConfig(1), w, "")
	if err != nil {
		t.Fatal(err)
	}
	checkNames(t, res, perLayer, specUnits(t))
}

func sortedNames(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}
