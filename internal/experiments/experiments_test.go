package experiments

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"testing"

	"blinkdb/internal/elp"
	"blinkdb/internal/exec"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/stats"
	"blinkdb/internal/types"
)

// cell parses a numeric table cell.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSpace(tab.Rows[row][col]), "%")
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %d,%d = %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	s := tab.String()
	for _, frag := range []string{"== demo ==", "long-column", "333", "note: a note"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendering missing %q:\n%s", frag, s)
		}
	}
}

func TestAllAndFind(t *testing.T) {
	all := All()
	if len(all) < 10 {
		t.Fatalf("experiments = %d", len(all))
	}
	for _, e := range all {
		if Find(e.Name) == nil {
			t.Errorf("Find(%q) failed", e.Name)
		}
	}
	if Find("nope") != nil {
		t.Error("Find(nope) should be nil")
	}
}

func TestFigure6aBudgetMonotone(t *testing.T) {
	tab, err := Figure6a(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Totals per budget must respect the budget and grow with it.
	var totals []float64
	for _, r := range tab.Rows {
		if r[1] == "TOTAL" {
			v, _ := strconv.ParseFloat(r[2], 64)
			totals = append(totals, v)
		}
	}
	if len(totals) != 3 {
		t.Fatalf("want 3 budget totals, got %d", len(totals))
	}
	budgets := []float64{50, 100, 200}
	for i, tot := range totals {
		if tot > budgets[i]+0.5 {
			t.Errorf("budget %g%% exceeded: %g", budgets[i], tot)
		}
	}
	if totals[2] < totals[0] {
		t.Errorf("larger budget should not shrink storage: %v", totals)
	}
}

func TestFigure6bBudgets(t *testing.T) {
	tab, err := Figure6b(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r[1] == "TOTAL" {
			v, _ := strconv.ParseFloat(r[2], 64)
			if v > 201 {
				t.Errorf("total %g exceeds any budget", v)
			}
		}
	}
}

// TestFigure6cShape asserts the headline result: BlinkDB is at least an
// order of magnitude faster than every full-scan engine, and Hadoop is the
// slowest.
func TestFigure6cShape(t *testing.T) {
	tab, err := Figure6c(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, col := range []int{1, 2} {
		hadoop := cell(t, tab, 0, col)
		sharkDisk := cell(t, tab, 1, col)
		sharkMem := cell(t, tab, 2, col)
		blink := cell(t, tab, 3, col)
		if !(hadoop > sharkDisk && sharkDisk > sharkMem) {
			t.Errorf("engine ordering wrong in col %d: %g %g %g", col, hadoop, sharkDisk, sharkMem)
		}
		if blink*10 > sharkMem {
			t.Errorf("BlinkDB (%g) should be ≥10x faster than Shark cached (%g)", blink, sharkMem)
		}
	}
	// 7.5 TB slower than 2.5 TB for full scans.
	if cell(t, tab, 0, 2) <= cell(t, tab, 0, 1) {
		t.Error("bigger data should be slower for Hadoop")
	}
}

// TestFigure7cShape asserts the convergence claim: the multi-column
// strategy reaches tight bounds orders of magnitude faster than uniform.
func TestFigure7cShape(t *testing.T) {
	tab, err := Figure7c(Quick())
	if err != nil {
		t.Fatal(err)
	}
	last := len(tab.Rows) - 1 // tightest target
	multi := cell(t, tab, last, 1)
	uniform := cell(t, tab, last, 3)
	if multi*10 > uniform {
		t.Errorf("multi-column (%g) should converge ≥10x faster than uniform (%g)", multi, uniform)
	}
}

// TestFigure8aBoundsRespected asserts max actual ≤ requested.
func TestFigure8aBoundsRespected(t *testing.T) {
	tab, err := Figure8a(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		requested := cell(t, tab, i, 0)
		max := cell(t, tab, i, 3)
		if max > requested*1.05 {
			t.Errorf("requested %gs but max %gs", requested, max)
		}
	}
}

// TestFigure8bMeanUnderBound asserts the mean measured error stays at or
// below the requested bound.
func TestFigure8bMeanUnderBound(t *testing.T) {
	tab, err := Figure8b(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		requested := cell(t, tab, i, 0)
		mean := cell(t, tab, i, 2)
		if mean > requested {
			t.Errorf("requested %g%% but mean measured %g%%", requested, mean)
		}
	}
}

// TestFigure8cShape asserts cached < disk, selective < bulk, and rough
// flatness beyond the smallest clusters.
func TestFigure8cShape(t *testing.T) {
	tab, err := Figure8c(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		selCache := cell(t, tab, i, 1)
		selDisk := cell(t, tab, i, 2)
		bulkCache := cell(t, tab, i, 3)
		bulkDisk := cell(t, tab, i, 4)
		if selCache > selDisk || bulkCache > bulkDisk {
			t.Errorf("row %d: cached should not be slower than disk", i)
		}
		if i >= 1 && selCache > bulkCache {
			t.Errorf("row %d: selective should not be slower than bulk at scale", i)
		}
	}
	// Flatness: latency at 100 nodes within 2x of latency at 20 nodes.
	for col := 1; col <= 4; col++ {
		l20 := cell(t, tab, 1, col)
		l100 := cell(t, tab, len(tab.Rows)-1, col)
		if l100 > 2*l20 || l20 > 2*l100 {
			t.Errorf("col %d not roughly flat: %g @20 vs %g @100", col, l20, l100)
		}
	}
}

// TestTable5MatchesPaper asserts every cell within tolerance of the paper.
func TestTable5MatchesPaper(t *testing.T) {
	tab, err := Table5(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tab.Rows {
		for _, pair := range [][2]int{{1, 2}, {3, 4}, {5, 6}} {
			ours, _ := strconv.ParseFloat(r[pair[0]], 64)
			paper, _ := strconv.ParseFloat(r[pair[1]], 64)
			diff := ours - paper
			if diff < 0 {
				diff = -diff
			}
			if diff > 0.25*paper+0.005 {
				t.Errorf("row %d (%s): ours %.4f vs paper %.4f", i, r[0], ours, paper)
			}
		}
	}
}

func TestTable5MonteCarloAgreement(t *testing.T) {
	tab, err := Table5MonteCarlo(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tab.Rows {
		an, _ := strconv.ParseFloat(r[2], 64)
		mc, _ := strconv.ParseFloat(r[3], 64)
		diff := an - mc
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.3*mc+0.01 {
			t.Errorf("row %d: analytic %.4f vs monte-carlo %.4f", i, an, mc)
		}
	}
}

// TestOnlineVsOffline asserts BlinkDB beats OLA at the tighter target.
func TestOnlineVsOffline(t *testing.T) {
	tab, err := OnlineVsOffline(Quick())
	if err != nil {
		t.Fatal(err)
	}
	blink := cell(t, tab, 0, 1)
	ola := cell(t, tab, 0, 2)
	if blink > ola {
		t.Errorf("BlinkDB (%g) should beat OLA (%g) at the tight target", blink, ola)
	}
}

func TestNewEnvErrors(t *testing.T) {
	if _, err := NewEnv(Quick(), "bogus", 1e12); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestMeasuredRelErr(t *testing.T) {
	mk := func(vals map[string]float64) *exec.Result {
		r := &exec.Result{}
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			r.Groups = append(r.Groups, exec.Group{
				Key:       []types.Value{types.Str(k)},
				Estimates: []stats.Estimate{{Point: vals[k]}},
			})
		}
		return r
	}
	truth := mk(map[string]float64{"a": 100, "b": 200})
	// Perfect estimate: zero error.
	if got := MeasuredRelErr(mk(map[string]float64{"a": 100, "b": 200}), truth); got != 0 {
		t.Errorf("perfect estimate err = %g", got)
	}
	// 10% off on one of two groups: mean 5%.
	got := MeasuredRelErr(mk(map[string]float64{"a": 110, "b": 200}), truth)
	if got < 0.049 || got > 0.051 {
		t.Errorf("err = %g, want 0.05", got)
	}
	// Missing group counts as 100%: mean (1+0)/2.
	got = MeasuredRelErr(mk(map[string]float64{"a": 100}), truth)
	if got != 0.5 {
		t.Errorf("missing-group err = %g, want 0.5", got)
	}
	// Empty truth: zero.
	if got := MeasuredRelErr(mk(nil), &exec.Result{}); got != 0 {
		t.Errorf("empty truth err = %g", got)
	}
}

// TestAblationDeltaReuseNeverSlower pins §4.4's intermediate-data reuse on
// the Conviva catalog the experiments query: the read a runtime charges
// for its chosen resolution never exceeds reading that resolution in full
// (the probe's blocks are already read), and on these queries the probe's
// share is a real saving.
func TestAblationDeltaReuseNeverSlower(t *testing.T) {
	env, err := NewEnv(Quick(), "conviva", 17e12)
	if err != nil {
		t.Fatal(err)
	}
	rt := env.Runtime(MultiDim)
	saved := 0
	for _, src := range []string{
		`SELECT AVG(sessiontimems) FROM sessions WHERE country = 'country02' AND endedflag = 0 ERROR WITHIN 25%`,
		`SELECT COUNT(*) FROM sessions WHERE country = 'country01' AND endedflag = 1 ERROR WITHIN 20%`,
		`SELECT AVG(jointimems) FROM sessions WHERE objectid = 2 ERROR WITHIN 15%`,
	} {
		q, err := sqlparser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := exec.Compile(q, env.Data.Table.Schema)
		if err != nil {
			t.Fatal(err)
		}
		key, params := sqlparser.Normalize(q)
		resp, err := rt.Run(context.Background(), q, key, params, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range resp.Decisions {
			if d.UsedBase {
				t.Fatalf("%q: answered from the base table", src)
			}
			full, err := elp.PriceBlockRead(env.Clus, plan.Prune(d.View.Blocks()), env.Scale)
			if err != nil {
				t.Fatal(err)
			}
			if d.ReadLatency > full+1e-9 {
				t.Errorf("%q: reuse read (%g s) slower than a full read (%g s)", src, d.ReadLatency, full)
			}
			if d.ReadLatency < full {
				saved++
			}
		}
	}
	if saved == 0 {
		t.Error("no query reused the probe's blocks")
	}
}

// TestAblationAffinitySkewStrictlySlower pins the tentpole's acceptance
// criterion at the experiment layer: piling a family's blocks onto one
// node prices strictly higher than the striped layout for every family.
func TestAblationAffinitySkewStrictlySlower(t *testing.T) {
	tab, err := AblationAffinity(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no families priced")
	}
	for i := range tab.Rows {
		striped := cell(t, tab, i, 3)
		oneNode := cell(t, tab, i, 4)
		if oneNode <= striped {
			t.Errorf("family %s: one-node placement (%g s) must be strictly slower than striped (%g s)",
				tab.Rows[i][0], oneNode, striped)
		}
	}
}

func TestAblationMILPExactNotWorse(t *testing.T) {
	tab, err := AblationMILP(Quick())
	if err != nil {
		t.Fatal(err)
	}
	exact := cell(t, tab, 0, 1)
	greedy := cell(t, tab, 1, 1)
	if greedy > exact+1e-9 {
		t.Errorf("greedy objective %g exceeds exact optimum %g", greedy, exact)
	}
}

func TestAblationSkewMetricRuns(t *testing.T) {
	tab, err := AblationSkewMetric(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[1] == "" {
			t.Errorf("metric %s chose no families", r[0])
		}
	}
}
