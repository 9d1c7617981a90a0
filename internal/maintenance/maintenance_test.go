package maintenance

import (
	"math/rand"
	"reflect"
	"testing"

	"blinkdb/internal/catalog"
	"blinkdb/internal/optimizer"
	"blinkdb/internal/sample"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
	"blinkdb/internal/zipf"
)

func buildTable(t testing.TB, rows int, citySkew float64, seed int64) *storage.Table {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "os", Kind: types.KindString},
		types.Column{Name: "v", Kind: types.KindFloat},
	)
	tab := storage.NewTable("sessions", schema)
	b := storage.NewBuilder(tab, 512, 4, storage.OnDisk)
	rng := rand.New(rand.NewSource(seed))
	gen := zipf.NewGeneratorCDF(rng, citySkew, 150)
	oses := []string{"Win7", "OSX", "Linux"}
	for i := 0; i < rows; i++ {
		b.AppendRow(types.Row{
			types.Str("city" + string(rune('A'+gen.Next()%26))),
			types.Str(oses[rng.Intn(3)]),
			types.Float(rng.Float64() * 100),
		})
	}
	return b.Finish()
}

func templatesFor(weightCity, weightOS float64) []optimizer.TemplateSpec {
	return []optimizer.TemplateSpec{
		{Columns: types.NewColumnSet("city"), Weight: weightCity},
		{Columns: types.NewColumnSet("os"), Weight: weightOS},
	}
}

func TestSnapshotAndDrift(t *testing.T) {
	tab1 := buildTable(t, 20000, 1.5, 1)
	tab2 := buildTable(t, 20000, 1.5, 2)  // same distribution, new draw
	tab3 := buildTable(t, 20000, 1.05, 3) // much flatter skew

	cols := []string{"city", "os"}
	tpls := templatesFor(0.6, 0.4)
	s1, err := TakeSnapshot(tab1, cols, tpls)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := TakeSnapshot(tab2, cols, tpls)
	s3, _ := TakeSnapshot(tab3, cols, tpls)

	same := DataDrift(s1, s2)
	diff := DataDrift(s1, s3)
	if same > 0.08 {
		t.Errorf("same-distribution drift = %.3f, want small", same)
	}
	if diff < 0.2 {
		t.Errorf("cross-skew drift = %.3f, want large", diff)
	}
	if diff <= same {
		t.Error("different skew must drift more than a re-draw")
	}
}

// TestSnapshotHistsMatchValueKeys holds TakeSnapshot's histograms, counted
// by dense value id, to one Value.Key per row and column on a table of
// three chunks, each with its own dictionaries, with a float column wide
// enough that the TopK truncation breaks ties by key.
func TestSnapshotHistsMatchValueKeys(t *testing.T) {
	tab := buildTable(t, 140000, 1.5, 4)
	if n := len(tab.Chunks()); n < 3 {
		t.Fatalf("%d chunks, want at least 3", n)
	}
	cols := []string{"city", "os", "v", "city"}
	snap, err := TakeSnapshot(tab, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]int64{}
	for _, c := range cols {
		want[c] = map[string]int64{}
	}
	for _, b := range tab.Blocks {
		for ri := 0; ri < b.NumRows(); ri++ {
			for _, c := range cols {
				want[c][b.ValueAt(ri, tab.Schema.Index(c)).Key()]++
			}
		}
	}
	for c := range want {
		want[c] = truncateHist(want[c], TopK)
	}
	if !reflect.DeepEqual(snap.ColumnHists, want) {
		t.Fatal("histograms differ from the per-row Value.Key count")
	}
}

func TestWorkloadDrift(t *testing.T) {
	tab := buildTable(t, 1000, 1.5, 1)
	s1, _ := TakeSnapshot(tab, nil, templatesFor(0.9, 0.1))
	s2, _ := TakeSnapshot(tab, nil, templatesFor(0.9, 0.1))
	s3, _ := TakeSnapshot(tab, nil, templatesFor(0.1, 0.9))
	if WorkloadDrift(s1, s2) > 1e-9 {
		t.Error("identical workloads should not drift")
	}
	if WorkloadDrift(s1, s3) < 0.5 {
		t.Errorf("flipped workload drift = %.3f", WorkloadDrift(s1, s3))
	}
}

func TestSnapshotUnknownColumn(t *testing.T) {
	tab := buildTable(t, 100, 1.5, 1)
	if _, err := TakeSnapshot(tab, []string{"bogus"}, nil); err == nil {
		t.Error("unknown column should error")
	}
}

func TestNeedsResolve(t *testing.T) {
	tab := buildTable(t, 20000, 1.5, 1)
	cat := catalog.New()
	cat.Register(tab)
	m := NewMaintainer(cat, "sessions", optimizer.Config{K: 100, BudgetBytes: tab.Bytes()})

	cur, _ := TakeSnapshot(tab, []string{"city"}, templatesFor(0.6, 0.4))
	if !m.NeedsResolve(cur) {
		t.Error("no baseline: must resolve")
	}
	m.Observe(cur)
	if m.NeedsResolve(cur) {
		t.Error("identical snapshot should not trigger")
	}
	flat := buildTable(t, 20000, 1.05, 9)
	drifted, _ := TakeSnapshot(flat, []string{"city"}, templatesFor(0.6, 0.4))
	if !m.NeedsResolve(drifted) {
		t.Error("skew change should trigger")
	}
	shifted, _ := TakeSnapshot(tab, []string{"city"}, templatesFor(0.1, 0.9))
	if !m.NeedsResolve(shifted) {
		t.Error("workload change should trigger")
	}
}

func TestResolveAndApplyFirstTime(t *testing.T) {
	tab := buildTable(t, 20000, 1.6, 1)
	cat := catalog.New()
	cat.Register(tab)
	m := NewMaintainer(cat, "sessions", optimizer.Config{
		K: 100, CapRatio: 4, Resolutions: 2, MinCap: 5,
		BudgetBytes: tab.Bytes(),
		Build:       sample.BuildConfig{Seed: 1},
	})
	diff, err := m.Resolve(templatesFor(0.7, 0.3), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Build) == 0 || len(diff.Drop) != 0 || len(diff.Keep) != 0 {
		t.Fatalf("first resolve diff = %+v", diff)
	}
	if !diff.Changed() {
		t.Error("first diff should change things")
	}
	if err := m.Apply(diff); err != nil {
		t.Fatal(err)
	}
	entry, _ := cat.Lookup("sessions")
	if len(entry.Stratified()) != len(diff.Build) {
		t.Errorf("families = %d, want %d", len(entry.Stratified()), len(diff.Build))
	}

	// Second resolve with unchanged inputs: nothing to do.
	diff2, err := m.Resolve(templatesFor(0.7, 0.3), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if diff2.Changed() {
		t.Errorf("stable workload should not churn: %+v", diff2)
	}
}

func TestChurnZeroFreezesConfiguration(t *testing.T) {
	tab := buildTable(t, 20000, 1.6, 1)
	cat := catalog.New()
	cat.Register(tab)
	cfg := optimizer.Config{
		K: 100, CapRatio: 4, Resolutions: 2, MinCap: 5,
		BudgetBytes: tab.Bytes(),
		Build:       sample.BuildConfig{Seed: 1},
	}
	m := NewMaintainer(cat, "sessions", cfg)
	diff, err := m.Resolve(templatesFor(0.7, 0.3), -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(diff); err != nil {
		t.Fatal(err)
	}
	// Flip the workload but set r = 0: nothing may change.
	diff2, err := m.Resolve(templatesFor(0.05, 0.95), 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff2.Changed() {
		t.Errorf("r=0 must freeze the sample set: build=%v drop=%v", diff2.Build, diff2.Drop)
	}
	// r = 1 may adapt.
	diff3, err := m.Resolve(templatesFor(0.05, 0.95), 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = diff3 // adaptation depends on storage weights; just must not error
}

func TestMaintainerRefreshRotatesAndReplaces(t *testing.T) {
	tab := buildTable(t, 10000, 1.5, 1)
	cat := catalog.New()
	cat.Register(tab)
	f1, err := sample.Build(tab, types.NewColumnSet("city"), []int64{10, 100}, sample.BuildConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddFamily("sessions", f1); err != nil {
		t.Fatal(err)
	}
	uf, err := sample.BuildUniform(tab, []int64{100, 1000}, sample.BuildConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddFamily("sessions", uf); err != nil {
		t.Fatal(err)
	}

	m := NewMaintainer(cat, "sessions", optimizer.Config{Build: sample.BuildConfig{Seed: 100}})
	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		phi, ok, err := m.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("refresh should find families")
		}
		seen[phi.Key()]++
	}
	// Round-robin over 2 families, twice each.
	if seen["city"] != 2 || seen[""] != 2 {
		t.Errorf("rotation = %v", seen)
	}
	// The replaced family object must differ from the original.
	entry, _ := cat.Lookup("sessions")
	for _, f := range entry.Families {
		if f == f1 || f == uf {
			t.Error("refresh did not replace the family object")
		}
	}
	// Structure is preserved: same caps, valid.
	for _, f := range entry.Families {
		if err := f.Validate(); err != nil {
			t.Errorf("refreshed family invalid: %v", err)
		}
	}
}

func TestMaintainerRefreshEmptyCatalog(t *testing.T) {
	tab := buildTable(t, 100, 1.5, 1)
	cat := catalog.New()
	cat.Register(tab)
	m := NewMaintainer(cat, "sessions", optimizer.Config{})
	if _, ok, err := m.Refresh(); err != nil || ok {
		t.Errorf("empty catalog: ok=%v err=%v", ok, err)
	}
	m2 := NewMaintainer(cat, "nope", optimizer.Config{})
	if _, _, err := m2.Refresh(); err == nil {
		t.Error("unknown table should error")
	}
}
