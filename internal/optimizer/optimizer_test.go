package optimizer

import (
	"math/rand"
	"reflect"
	"testing"

	"blinkdb/internal/sample"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
	"blinkdb/internal/zipf"
)

// buildTestTable creates a table with one heavily skewed column (city,
// Zipf), one uniform column (genre) and one numeric column.
func buildTestTable(t testing.TB, rows int) *storage.Table {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "genre", Kind: types.KindString},
		types.Column{Name: "os", Kind: types.KindString},
		types.Column{Name: "time", Kind: types.KindFloat},
	)
	tab := storage.NewTable("sessions", schema)
	b := storage.NewBuilder(tab, 1024, 4, storage.OnDisk)
	rng := rand.New(rand.NewSource(42))
	cityGen := zipf.NewGeneratorCDF(rng, 1.6, 500) // highly skewed
	genres := []string{"western", "drama", "comedy", "horror"}
	oses := []string{"Win7", "OSX", "Linux", "iOS", "Android"}
	for i := 0; i < rows; i++ {
		b.AppendRow(types.Row{
			types.Str(cityLabel(cityGen.Next())),
			types.Str(genres[rng.Intn(len(genres))]), // uniform
			types.Str(oses[rng.Intn(len(oses))]),     // uniform
			types.Float(rng.Float64() * 100),
		})
	}
	return b.Finish()
}

func cityLabel(rank int) string {
	return "city" + string(rune('0'+rank%10)) + string(rune('a'+rank/10%26)) + string(rune('a'+rank/260))
}

func TestTailCountMetric(t *testing.T) {
	freqs := []int64{1000, 500, 50, 5, 1}
	if got := TailCount(freqs, 100); got != 3 {
		t.Errorf("TailCount = %g, want 3", got)
	}
	if got := TailCount(freqs, 1); got != 0 {
		t.Errorf("TailCount K=1 = %g, want 0", got)
	}
	if got := TailCount(nil, 100); got != 0 {
		t.Errorf("empty TailCount = %g", got)
	}
}

func TestKurtosisMetric(t *testing.T) {
	// Uniform frequencies → zero (clamped) kurtosis; heavy tail → large.
	uniform := []int64{100, 100, 100, 100}
	if got := Kurtosis(uniform, 0); got != 0 {
		t.Errorf("uniform kurtosis = %g", got)
	}
	skewed := []int64{10000, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	if got := Kurtosis(skewed, 0); got <= 0 {
		t.Errorf("skewed kurtosis = %g, want > 0", got)
	}
	if Kurtosis([]int64{5}, 0) != 0 {
		t.Error("single-value kurtosis should be 0")
	}
}

func TestChooseSamplesPrefersSkewedColumns(t *testing.T) {
	tab := buildTestTable(t, 30000)
	templates := []TemplateSpec{
		{Columns: types.NewColumnSet("city"), Weight: 0.5},
		{Columns: types.NewColumnSet("genre"), Weight: 0.5},
	}
	cfg := Config{K: 200, BudgetBytes: tab.Bytes() / 2, ChurnFrac: -1}
	plan, err := ChooseSamples(tab, templates, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// city is Zipf-skewed (many sub-cap values); genre is uniform with 4
	// values all above the cap, so Δ(genre) = 0 and it must not be
	// chosen (this is the paper's §2.3 narrative: "Note that despite
	// Genre being a frequently queried column, we do not create a
	// stratified sample on this column").
	var hasCity, hasGenre bool
	for _, ch := range plan.Chosen {
		switch ch.Phi.Key() {
		case "city":
			hasCity = true
		case "genre":
			hasGenre = true
		}
	}
	if !hasCity {
		t.Errorf("skewed city column not chosen: %+v", plan.Chosen)
	}
	if hasGenre {
		t.Errorf("uniform genre column should not be chosen")
	}
	if !plan.Optimal {
		t.Error("small instance should solve exactly")
	}
}

func TestChooseSamplesBudgetRespected(t *testing.T) {
	tab := buildTestTable(t, 20000)
	templates := []TemplateSpec{
		{Columns: types.NewColumnSet("city", "os"), Weight: 0.6},
		{Columns: types.NewColumnSet("city"), Weight: 0.4},
	}
	for _, frac := range []float64{0.1, 0.5, 1.0} {
		budget := int64(float64(tab.Bytes()) * frac)
		plan, err := ChooseSamples(tab, templates, Config{K: 100, BudgetBytes: budget, ChurnFrac: -1})
		if err != nil {
			t.Fatal(err)
		}
		if plan.TotalBytes > budget {
			t.Errorf("budget %d exceeded: %d", budget, plan.TotalBytes)
		}
	}
}

func TestLargerBudgetNeverWorse(t *testing.T) {
	tab := buildTestTable(t, 20000)
	templates := []TemplateSpec{
		{Columns: types.NewColumnSet("city", "os"), Weight: 0.4},
		{Columns: types.NewColumnSet("city", "genre"), Weight: 0.3},
		{Columns: types.NewColumnSet("os"), Weight: 0.3},
	}
	var prev float64 = -1
	for _, frac := range []float64{0.25, 0.5, 1.0, 2.0} {
		plan, err := ChooseSamples(tab, templates, Config{
			K: 100, BudgetBytes: int64(float64(tab.Bytes()) * frac), ChurnFrac: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Objective < prev-1e-9 {
			t.Errorf("objective decreased with budget: %g after %g", plan.Objective, prev)
		}
		prev = plan.Objective
	}
}

func TestCandidateGenerationSubsets(t *testing.T) {
	tab := buildTestTable(t, 5000)
	templates := []TemplateSpec{
		{Columns: types.NewColumnSet("city", "os", "genre"), Weight: 1},
	}
	plan, err := ChooseSamples(tab, templates, Config{
		K: 100, BudgetBytes: tab.Bytes() * 10, MaxColumns: 2, ChurnFrac: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Subsets of a 3-set limited to ≤2 columns: 3 singletons + 3 pairs.
	if len(plan.Candidates) != 6 {
		t.Errorf("candidates = %d, want 6", len(plan.Candidates))
	}
	for _, c := range plan.Candidates {
		if c.Phi.Len() > 2 {
			t.Errorf("candidate %v exceeds MaxColumns", c.Phi)
		}
	}
}

func TestSingleColumnRestriction(t *testing.T) {
	// MaxColumns=1 reproduces the single-dimensional baseline (§6.3).
	tab := buildTestTable(t, 5000)
	templates := []TemplateSpec{
		{Columns: types.NewColumnSet("city", "os"), Weight: 1},
	}
	plan, err := ChooseSamples(tab, templates, Config{
		K: 100, BudgetBytes: tab.Bytes() * 10, MaxColumns: 1, ChurnFrac: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range plan.Candidates {
		if c.Phi.Len() != 1 {
			t.Errorf("single-column restriction violated: %v", c.Phi)
		}
	}
}

func TestChurnPreservesExisting(t *testing.T) {
	tab := buildTestTable(t, 10000)
	templates := []TemplateSpec{
		{Columns: types.NewColumnSet("city"), Weight: 0.5},
		{Columns: types.NewColumnSet("os"), Weight: 0.5},
	}
	base, err := ChooseSamples(tab, templates, Config{K: 100, BudgetBytes: tab.Bytes(), ChurnFrac: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Chosen) == 0 {
		t.Fatal("nothing chosen in base run")
	}
	var existing []types.ColumnSet
	for _, c := range base.Chosen {
		existing = append(existing, c.Phi)
	}
	// r=0: must return exactly the existing configuration.
	frozen, err := ChooseSamples(tab, templates, Config{
		K: 100, BudgetBytes: tab.Bytes(), ChurnFrac: 0, Existing: existing,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(frozen.Chosen) != len(base.Chosen) {
		t.Fatalf("r=0 changed the set: %d vs %d", len(frozen.Chosen), len(base.Chosen))
	}
	for i := range frozen.Chosen {
		if !frozen.Chosen[i].Phi.Equal(base.Chosen[i].Phi) {
			t.Errorf("r=0 swapped %v for %v", base.Chosen[i].Phi, frozen.Chosen[i].Phi)
		}
	}
}

func TestBuildFamilies(t *testing.T) {
	tab := buildTestTable(t, 20000)
	templates := []TemplateSpec{
		{Columns: types.NewColumnSet("city"), Weight: 1},
	}
	cfg := Config{K: 200, CapRatio: 4, Resolutions: 3, MinCap: 5,
		BudgetBytes: tab.Bytes(), ChurnFrac: -1, Build: sample.BuildConfig{Seed: 9}}
	plan, err := ChooseSamples(tab, templates, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := BuildFamilies(tab, plan, cfg, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != len(plan.Chosen)+1 {
		t.Fatalf("families = %d, want chosen+uniform = %d", len(fams), len(plan.Chosen)+1)
	}
	last := fams[len(fams)-1]
	if !last.IsUniform() {
		t.Error("last family should be uniform")
	}
	// Uniform family sized at ~10% of 20000 rows.
	if got := last.Largest().Rows(); got < 1500 || got > 2500 {
		t.Errorf("uniform largest rows = %d, want ≈ 2000", got)
	}
	for _, f := range fams {
		if err := f.Validate(); err != nil {
			t.Errorf("family %s invalid: %v", f, err)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	tab := buildTestTable(t, 100)
	if _, err := ChooseSamples(tab, nil, Config{}); err == nil {
		t.Error("no templates should fail")
	}
	if _, err := ChooseSamples(tab, []TemplateSpec{{Columns: types.NewColumnSet()}}, Config{}); err == nil {
		t.Error("empty template columns should fail")
	}
	if _, err := ChooseSamples(tab, []TemplateSpec{
		{Columns: types.NewColumnSet("bogus"), Weight: 1},
	}, Config{}); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestKurtosisConfigUsed(t *testing.T) {
	tab := buildTestTable(t, 10000)
	templates := []TemplateSpec{
		{Columns: types.NewColumnSet("city"), Weight: 0.5},
		{Columns: types.NewColumnSet("genre"), Weight: 0.5},
	}
	plan, err := ChooseSamples(tab, templates, Config{
		K: 200, BudgetBytes: tab.Bytes(), ChurnFrac: -1, Skew: Kurtosis,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The skewed column still wins under the alternative metric.
	var hasCity bool
	for _, c := range plan.Chosen {
		if c.Phi.Key() == "city" {
			hasCity = true
		}
	}
	if !hasCity {
		t.Error("kurtosis metric should also favor the skewed column")
	}
}

func BenchmarkChooseSamples(b *testing.B) {
	tab := buildTestTable(b, 50000)
	templates := []TemplateSpec{
		{Columns: types.NewColumnSet("city", "os"), Weight: 0.3},
		{Columns: types.NewColumnSet("city", "genre"), Weight: 0.25},
		{Columns: types.NewColumnSet("os", "genre", "city"), Weight: 0.18},
		{Columns: types.NewColumnSet("genre"), Weight: 0.15},
		{Columns: types.NewColumnSet("os"), Weight: 0.12},
	}
	cfg := Config{K: 500, BudgetBytes: tab.Bytes(), ChurnFrac: -1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ChooseSamples(tab, templates, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParallelBuildDeterminism pins the satellite contract of the
// parallel offline pipeline: BuildMILP and BuildFamilies produce
// identical output for any Workers value (indexed output slots, per-unit
// RNGs), and under -race this also proves the fan-out is data-race free.
func TestParallelBuildDeterminism(t *testing.T) {
	tab := buildTestTable(t, 6000)
	templates := []TemplateSpec{
		{Columns: types.NewColumnSet("city"), Weight: 0.5},
		{Columns: types.NewColumnSet("city", "genre"), Weight: 0.3},
		{Columns: types.NewColumnSet("os", "genre"), Weight: 0.2},
	}
	base := Config{
		K: 200, BudgetBytes: tab.Bytes(),
		Build: sample.BuildConfig{RowsPerBlock: 256, Nodes: 4, Seed: 7},
	}
	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 8

	probSeq, candsSeq, err := BuildMILP(tab, templates, seq)
	if err != nil {
		t.Fatal(err)
	}
	probPar, candsPar, err := BuildMILP(tab, templates, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(probSeq, probPar) {
		t.Fatalf("MILP problem depends on worker count:\nseq %+v\npar %+v", probSeq, probPar)
	}
	if !reflect.DeepEqual(candsSeq, candsPar) {
		t.Fatalf("candidates depend on worker count")
	}

	planSeq, err := ChooseSamples(tab, templates, seq)
	if err != nil {
		t.Fatal(err)
	}
	famsSeq, err := BuildFamilies(tab, planSeq, seq, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	famsPar, err := BuildFamilies(tab, planSeq, par, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(famsSeq) != len(famsPar) || len(famsSeq) < 2 {
		t.Fatalf("family counts differ: %d vs %d", len(famsSeq), len(famsPar))
	}
	for i := range famsSeq {
		a, b := famsSeq[i], famsPar[i]
		if !a.Phi.Equal(b.Phi) || a.StorageRows() != b.StorageRows() || a.StorageBytes() != b.StorageBytes() {
			t.Fatalf("family %d differs across worker counts: %s/%d vs %s/%d",
				i, a, a.StorageRows(), b, b.StorageRows())
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("family %d invalid: %v", i, err)
		}
		// Contents, not just sizes: rows drawn must be identical.
		for li := range a.Deltas {
			var rowsA, rowsB []string
			idx := allCols(a.Schema())
			for _, blk := range a.Deltas[li].Blocks {
				for ri := 0; ri < blk.NumRows(); ri++ {
					rowsA = append(rowsA, blk.RowKey(ri, idx))
				}
			}
			for _, blk := range b.Deltas[li].Blocks {
				for ri := 0; ri < blk.NumRows(); ri++ {
					rowsB = append(rowsB, blk.RowKey(ri, idx))
				}
			}
			if !reflect.DeepEqual(rowsA, rowsB) {
				t.Fatalf("family %d delta %d contents differ across worker counts", i, li)
			}
		}
	}
}

func allCols(s *types.Schema) []int {
	idx := make([]int, s.Len())
	for i := range idx {
		idx[i] = i
	}
	return idx
}
