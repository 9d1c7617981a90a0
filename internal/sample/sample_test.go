package sample

import (
	"math"
	"math/rand"
	"testing"

	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

func sessionsSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "os", Kind: types.KindString},
		types.Column{Name: "time", Kind: types.KindFloat},
	)
}

// skewedTable builds a table where city frequencies are highly skewed:
// city-0 has many rows, later cities exponentially fewer.
func skewedTable(t testing.TB, perCity []int) *storage.Table {
	t.Helper()
	tab := storage.NewTable("sessions", sessionsSchema())
	b := storage.NewBuilder(tab, 64, 4, storage.OnDisk)
	rng := rand.New(rand.NewSource(99))
	oses := []string{"Win7", "OSX", "Linux"}
	for ci, n := range perCity {
		for i := 0; i < n; i++ {
			b.AppendRow(types.Row{
				types.Str(cityName(ci)),
				types.Str(oses[rng.Intn(3)]),
				types.Float(rng.Float64() * 100),
			})
		}
	}
	return b.Finish()
}

func cityName(i int) string { return string(rune('A'+i%26)) + "city" }

func TestGeometricCaps(t *testing.T) {
	caps := GeometricCaps(1000, 10, 3, 1)
	want := []int64{10, 100, 1000}
	if len(caps) != 3 {
		t.Fatalf("caps = %v", caps)
	}
	for i := range want {
		if caps[i] != want[i] {
			t.Errorf("caps[%d] = %d, want %d", i, caps[i], want[i])
		}
	}
	// minCap truncates the sequence.
	caps = GeometricCaps(1000, 10, 5, 50)
	if len(caps) != 2 || caps[0] != 100 {
		t.Errorf("minCap caps = %v", caps)
	}
	// c ≤ 1 defaults to 2.
	caps = GeometricCaps(8, 0, 3, 1)
	if len(caps) != 3 || caps[0] != 2 || caps[2] != 8 {
		t.Errorf("default-c caps = %v", caps)
	}
}

func TestBuildStratifiedCapsFrequencies(t *testing.T) {
	// Cities with frequencies 1000, 100, 10, 1; cap K=50.
	tab := skewedTable(t, []int{1000, 100, 10, 1})
	fam, err := Build(tab, types.NewColumnSet("city"), []int64{5, 50}, BuildConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fam.Validate(); err != nil {
		t.Fatal(err)
	}
	if fam.numStrata != 4 {
		t.Errorf("strata = %d", fam.numStrata)
	}
	// Δ(φ) with K1=50: cities with freq < 50 are those with 10 and 1.
	if fam.tailCount != 2 {
		t.Errorf("tail count = %d, want 2", fam.tailCount)
	}
	// Largest sample: min(1000,50)+min(100,50)+10+1 = 111 rows.
	if got := fam.Largest().Rows(); got != 111 {
		t.Errorf("largest rows = %d, want 111", got)
	}
	// Smallest: min at cap 5: 5+5+5+1 = 16.
	if got := fam.View(0).Rows(); got != 16 {
		t.Errorf("smallest rows = %d, want 16", got)
	}
	// Deltas are non-overlapping: total physical = largest resolution.
	if fam.StorageRows() != fam.Largest().Rows() {
		t.Errorf("physical rows %d != largest view %d", fam.StorageRows(), fam.Largest().Rows())
	}
}

func TestViewRates(t *testing.T) {
	tab := skewedTable(t, []int{1000, 10})
	fam, err := Build(tab, types.NewColumnSet("city"), []int64{5, 100}, BuildConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	small, large := fam.View(0), fam.View(1)
	// City A (freq 1000): rate 5/1000 at K=5, 100/1000 at K=100.
	// City B (freq 10): rate 5/10 at K=5, exact (1.0) at K=100.
	rates := map[string]map[string]float64{} // view -> city -> rate
	for _, v := range []View{small, large} {
		m := map[string]float64{}
		v.Scan(func(r types.Row, rate float64) bool {
			m[r[0].S] = rate
			return true
		})
		rates[v.String()] = m
	}
	if got := rates[small.String()]["Acity"]; math.Abs(got-0.005) > 1e-12 {
		t.Errorf("small Acity rate = %g, want 0.005", got)
	}
	if got := rates[small.String()]["Bcity"]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("small Bcity rate = %g, want 0.5", got)
	}
	if got := rates[large.String()]["Acity"]; math.Abs(got-0.1) > 1e-12 {
		t.Errorf("large Acity rate = %g, want 0.1", got)
	}
	if got := rates[large.String()]["Bcity"]; got != 1.0 {
		t.Errorf("large Bcity rate = %g, want exact 1.0", got)
	}
}

func TestNestingProperty(t *testing.T) {
	// Every row of a smaller view must appear in every larger view
	// (samples are nested subsets, §3.1 / Fig. 3).
	tab := skewedTable(t, []int{500, 80, 7})
	fam, err := Build(tab, types.NewColumnSet("city"), []int64{3, 30, 300}, BuildConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := fam.Validate(); err != nil {
		t.Fatal(err)
	}
	for lvl := 0; lvl < fam.Resolutions()-1; lvl++ {
		smallRows := fam.View(lvl).Rows()
		largeRows := fam.View(lvl + 1).Rows()
		if smallRows > largeRows {
			t.Errorf("level %d (%d rows) larger than level %d (%d rows)",
				lvl, smallRows, lvl+1, largeRows)
		}
	}
	// DeltaBlocks(smaller) + smaller.Blocks == larger.Blocks exactly.
	small, large := fam.View(0), fam.View(2)
	delta := large.DeltaBlocks(small)
	if len(small.Blocks())+len(delta) != len(large.Blocks()) {
		t.Errorf("delta reuse mismatch: %d + %d != %d",
			len(small.Blocks()), len(delta), len(large.Blocks()))
	}
}

func TestHTEstimateUnbiasedFromStratified(t *testing.T) {
	// COUNT per city via 1/rate weights must equal the true counts in
	// expectation; for strata under the cap it is exact.
	perCity := []int{2000, 300, 40, 6}
	tab := skewedTable(t, perCity)
	fam, err := Build(tab, types.NewColumnSet("city"), []int64{50}, BuildConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	fam.View(0).Scan(func(r types.Row, rate float64) bool {
		got[r[0].S] += 1 / rate
		return true
	})
	for ci, n := range perCity {
		name := cityName(ci)
		if math.Abs(got[name]-float64(n)) > 1e-6 {
			t.Errorf("city %s: HT count %g, want exactly %d (rate = K/F is deterministic)",
				name, got[name], n)
		}
	}
}

func TestUniformFamily(t *testing.T) {
	tab := skewedTable(t, []int{1000})
	fam, err := BuildUniform(tab, []int64{10, 100}, BuildConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !fam.IsUniform() {
		t.Error("should be uniform")
	}
	if got := fam.View(0).Rows(); got != 10 {
		t.Errorf("small uniform rows = %d", got)
	}
	if got := fam.View(1).Rows(); got != 100 {
		t.Errorf("large uniform rows = %d", got)
	}
	// Rates: 10/1000 and 100/1000.
	fam.View(0).Scan(func(r types.Row, rate float64) bool {
		if math.Abs(rate-0.01) > 1e-12 {
			t.Fatalf("uniform small rate = %g", rate)
		}
		return true
	})
	fam.View(1).Scan(func(r types.Row, rate float64) bool {
		if math.Abs(rate-0.1) > 1e-12 {
			t.Fatalf("uniform large rate = %g", rate)
		}
		return true
	})
}

func TestMultiColumnStratification(t *testing.T) {
	tab := skewedTable(t, []int{400, 100})
	fam, err := Build(tab, types.NewColumnSet("city", "os"), []int64{20}, BuildConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := fam.Validate(); err != nil {
		t.Fatal(err)
	}
	// Strata = city × os combinations present (≤ 2×3).
	if fam.numStrata < 4 || fam.numStrata > 6 {
		t.Errorf("strata = %d, want 4..6", fam.numStrata)
	}
	// Each (city, os) stratum is capped at 20.
	counts := map[string]int{}
	fam.View(0).Scan(func(r types.Row, rate float64) bool {
		counts[r[0].S+"|"+r[1].S]++
		return true
	})
	for k, n := range counts {
		if n > 20 {
			t.Errorf("stratum %s has %d rows > cap 20", k, n)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	tab := skewedTable(t, []int{10})
	if _, err := Build(tab, types.NewColumnSet("city"), nil, BuildConfig{}); err == nil {
		t.Error("no caps should error")
	}
	if _, err := Build(tab, types.NewColumnSet("city"), []int64{10, 5}, BuildConfig{}); err == nil {
		t.Error("descending caps should error")
	}
	if _, err := Build(tab, types.NewColumnSet("bogus"), []int64{5}, BuildConfig{}); err == nil {
		t.Error("unknown column should error")
	}
}

func TestViewClamping(t *testing.T) {
	tab := skewedTable(t, []int{100})
	fam, _ := Build(tab, types.NewColumnSet("city"), []int64{5, 50}, BuildConfig{})
	if fam.View(-1).Level != 0 {
		t.Error("negative level should clamp to 0")
	}
	if fam.View(99).Level != 1 {
		t.Error("overlarge level should clamp to max")
	}
	if fam.View(0).Level != 0 || fam.Largest().Level != 1 {
		t.Error("Smallest/Largest wrong")
	}
	if fam.String() == "" || fam.View(0).String() == "" {
		t.Error("String empty")
	}
}

func TestDeterministicBuild(t *testing.T) {
	tab := skewedTable(t, []int{500, 50})
	f1, _ := Build(tab, types.NewColumnSet("city"), []int64{10}, BuildConfig{Seed: 7})
	f2, _ := Build(tab, types.NewColumnSet("city"), []int64{10}, BuildConfig{Seed: 7})
	var r1, r2 []float64
	f1.View(0).Scan(func(r types.Row, _ float64) bool { r1 = append(r1, r[2].F); return true })
	f2.View(0).Scan(func(r types.Row, _ float64) bool { r2 = append(r2, r[2].F); return true })
	if len(r1) != len(r2) {
		t.Fatalf("row counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("same seed must give identical samples")
		}
	}
}

func TestSampledSubsetUnbiasedMean(t *testing.T) {
	// The capped stratum's rows are a uniform random subset, so the mean
	// of the sampled time values should approximate the stratum mean.
	tab := storage.NewTable("s", sessionsSchema())
	b := storage.NewBuilder(tab, 64, 1, storage.OnDisk)
	rng := rand.New(rand.NewSource(12))
	truth := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := rng.Float64() * 100
		truth += v
		b.AppendRow(types.Row{types.Str("A"), types.Str("x"), types.Float(v)})
	}
	b.Finish()
	truth /= n
	fam, err := Build(tab, types.NewColumnSet("city"), []int64{2000}, BuildConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sum, cnt := 0.0, 0
	fam.View(0).Scan(func(r types.Row, rate float64) bool {
		if math.Abs(rate-0.1) > 1e-12 {
			t.Fatalf("rate = %g, want 0.1", rate)
		}
		sum += r[2].F
		cnt++
		return true
	})
	if cnt != 2000 {
		t.Fatalf("sample rows = %d", cnt)
	}
	mean := sum / float64(cnt)
	if math.Abs(mean-truth) > 2.5 { // ~3σ for uniform(0,100)/√2000
		t.Errorf("sample mean %.2f vs truth %.2f", mean, truth)
	}
}

func BenchmarkBuildStratified(b *testing.B) {
	tab := skewedTable(b, []int{50000, 5000, 500, 50, 5})
	phi := types.NewColumnSet("city")
	caps := GeometricCaps(1000, 10, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(tab, phi, caps, BuildConfig{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
