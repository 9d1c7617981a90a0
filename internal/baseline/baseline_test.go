package baseline

import (
	"math"
	"math/rand"
	"testing"

	"blinkdb/internal/cluster"
	"blinkdb/internal/exec"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/stats"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
	"blinkdb/internal/zipf"
)

func testTable(t testing.TB, rows int) *storage.Table {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "os", Kind: types.KindString},
		types.Column{Name: "time", Kind: types.KindFloat},
	)
	tab := storage.NewTable("sessions", schema)
	b := storage.NewBuilder(tab, 512, 100, storage.OnDisk)
	rng := rand.New(rand.NewSource(13))
	cityGen := zipf.NewGeneratorCDF(rng, 1.4, 100)
	oses := []string{"Win7", "OSX", "Linux"}
	for i := 0; i < rows; i++ {
		b.AppendRow(types.Row{
			types.Str("city" + string(rune('A'+cityGen.Next()%26))),
			types.Str(oses[rng.Intn(3)]),
			types.Float(rng.ExpFloat64() * 100),
		})
	}
	return b.Finish()
}

func compile(t testing.TB, src string, schema *types.Schema) *exec.Plan {
	t.Helper()
	q, err := sqlparser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.Compile(q, schema)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOLAConvergesAndIsAccurate(t *testing.T) {
	tab := testTable(t, 50000)
	plan := compile(t, `SELECT AVG(time) FROM sessions`, tab.Schema)
	clus := cluster.New(cluster.PaperConfig())
	exact := exec.RunParallel(plan, exec.FromTable(tab), 0.95, 1)
	truth := exact.Groups[0].Estimates[0].Point

	r := OLA(clus, tab, plan, OLAConfig{TargetRelErr: 0.05, Seed: 1, Scale: 1e5})
	if !r.Converged {
		t.Fatal("OLA should converge at 5% on 50k rows")
	}
	if r.Fraction >= 1 {
		t.Error("OLA should stop before reading everything")
	}
	got := r.Result.Groups[0].Estimates[0].Point
	if math.Abs(got-truth)/truth > 0.10 {
		t.Errorf("OLA estimate %.2f vs truth %.2f", got, truth)
	}
	if r.Latency <= 0 {
		t.Error("latency should be positive")
	}
}

func TestOLATighterTargetReadsMore(t *testing.T) {
	tab := testTable(t, 50000)
	plan := compile(t, `SELECT AVG(time) FROM sessions`, tab.Schema)
	clus := cluster.New(cluster.PaperConfig())
	loose := OLA(clus, tab, plan, OLAConfig{TargetRelErr: 0.10, Seed: 2})
	tight := OLA(clus, tab, plan, OLAConfig{TargetRelErr: 0.02, Seed: 2})
	if tight.RowsConsumed <= loose.RowsConsumed {
		t.Errorf("tighter target should read more: %d vs %d",
			tight.RowsConsumed, loose.RowsConsumed)
	}
}

func TestOLAFullStreamIsExact(t *testing.T) {
	tab := testTable(t, 5000)
	plan := compile(t, `SELECT COUNT(*), SUM(time) FROM sessions`, tab.Schema)
	clus := cluster.New(cluster.PaperConfig())
	r := OLA(clus, tab, plan, OLAConfig{Seed: 3}) // no targets: full stream
	if r.Fraction != 1 {
		t.Fatalf("fraction = %g", r.Fraction)
	}
	e := r.Result.Groups[0].Estimates
	if e[0].Point != 5000 {
		t.Errorf("count = %g", e[0].Point)
	}
	if !e[0].Exact || e[0].Bound != 0 {
		t.Error("full stream should be exact")
	}
	exact := exec.RunParallel(plan, exec.FromTable(tab), 0.95, 1)
	if math.Abs(e[1].Point-exact.Groups[0].Estimates[1].Point) > 1e-6 {
		t.Errorf("sum = %g vs %g", e[1].Point, exact.Groups[0].Estimates[1].Point)
	}
}

func TestOLATimeBudgetStops(t *testing.T) {
	tab := testTable(t, 50000)
	plan := compile(t, `SELECT AVG(time) FROM sessions`, tab.Schema)
	clus := cluster.New(cluster.PaperConfig())
	// Random-order scan of "5 GB" per node takes ~hundreds of seconds; a
	// 10-second budget must truncate the stream early.
	r := OLA(clus, tab, plan, OLAConfig{TimeBudget: 10, Seed: 4, Scale: 1e5})
	if r.Fraction >= 0.5 {
		t.Errorf("time budget should stop early: fraction %.2f", r.Fraction)
	}
	if r.Latency > 12 {
		t.Errorf("latency %.1f exceeds budget", r.Latency)
	}
}

func TestOLARandomOrderPenaltyVsBlinkDBStyleScan(t *testing.T) {
	// The same byte volume costs more in random order — this is the
	// paper's core argument for precomputed clustered samples (§7).
	tab := testTable(t, 20000)
	clus := cluster.New(cluster.PaperConfig())
	scale := 1e5
	seq := clus.UniformWork(float64(tab.Bytes())*scale, 0, 0, 256e6)
	rnd := seq
	rnd.RandomOrder = true
	if clus.Latency(cluster.SharkNoCache, rnd) < 2*clus.Latency(cluster.SharkNoCache, seq) {
		t.Error("random order should cost at least 2× sequential")
	}
}

func TestOLACountVarianceCalibrated(t *testing.T) {
	// Empirical coverage of the olaAcc COUNT estimator at a fixed prefix.
	tab := testTable(t, 20000)
	plan := compile(t, `SELECT COUNT(*) FROM sessions WHERE os = 'Win7'`, tab.Schema)
	clus := cluster.New(cluster.PaperConfig())
	exact := exec.RunParallel(plan, exec.FromTable(tab), 0.95, 1)
	truth := exact.Groups[0].Estimates[0].Point
	hits, trials := 0, 40
	for s := 0; s < trials; s++ {
		r := OLA(clus, tab, plan, OLAConfig{TargetRelErr: 0.08, Seed: int64(s), MinGroups: 1})
		e := r.Result.Groups[0].Estimates[0]
		if math.Abs(e.Point-truth) <= e.Bound {
			hits++
		}
	}
	if cov := float64(hits) / float64(trials); cov < 0.80 {
		t.Errorf("OLA COUNT CI coverage = %.2f, want ≥ 0.80", cov)
	}
}

func TestOLAQuantile(t *testing.T) {
	tab := testTable(t, 30000)
	plan := compile(t, `SELECT MEDIAN(time) FROM sessions`, tab.Schema)
	clus := cluster.New(cluster.PaperConfig())
	exact := exec.RunParallel(plan, exec.FromTable(tab), 0.95, 1)
	truth := exact.Groups[0].Estimates[0].Point
	r := OLA(clus, tab, plan, OLAConfig{TargetRelErr: 0.05, Seed: 5})
	got := r.Result.Groups[0].Estimates[0].Point
	if math.Abs(got-truth)/truth > 0.12 {
		t.Errorf("OLA median %.2f vs truth %.2f", got, truth)
	}
}

func TestOLAAccEstimates(t *testing.T) {
	// Unit-level checks of the fraction-aware estimators.
	a := newOLAAcc(stats.AggCount, 0)
	for i := 0; i < 100; i++ {
		a.add(1)
	}
	e := a.estimate(0.1, 0.95)
	if math.Abs(e.Point-1000) > 1e-9 {
		t.Errorf("count at 10%% = %g, want 1000", e.Point)
	}
	if e.Exact || e.Bound <= 0 {
		t.Error("partial fraction must carry uncertainty")
	}
	e = a.estimate(1.0, 0.95)
	if e.Point != 100 || !e.Exact || e.Bound != 0 {
		t.Errorf("full fraction must be exact: %+v", e)
	}

	s := newOLAAcc(stats.AggSum, 0)
	s.add(10)
	s.add(20)
	if got := s.estimate(0.5, 0.95).Point; math.Abs(got-60) > 1e-9 {
		t.Errorf("sum at 50%% = %g, want 60", got)
	}

	m := newOLAAcc(stats.AggAvg, 0)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		m.add(v)
	}
	if got := m.estimate(0.2, 0.95).Point; math.Abs(got-3) > 1e-9 {
		t.Errorf("avg = %g", got)
	}
	empty := newOLAAcc(stats.AggAvg, 0)
	if e := empty.estimate(0.5, 0.95); e.Point != 0 || e.Rows != 0 {
		t.Errorf("empty estimate = %+v", e)
	}
}

func BenchmarkOLA(b *testing.B) {
	tab := testTable(b, 50000)
	plan := compile(b, `SELECT AVG(time) FROM sessions`, tab.Schema)
	clus := cluster.New(cluster.PaperConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OLA(clus, tab, plan, OLAConfig{TargetRelErr: 0.05, Seed: int64(i)})
	}
}
