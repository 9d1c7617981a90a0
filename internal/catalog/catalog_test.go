package catalog

import (
	"testing"

	"blinkdb/internal/sample"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

func buildFixture(t *testing.T) (*Catalog, *storage.Table) {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "os", Kind: types.KindString},
		types.Column{Name: "url", Kind: types.KindString},
		types.Column{Name: "t", Kind: types.KindFloat},
	)
	tab := storage.NewTable("Sessions", schema)
	b := storage.NewBuilder(tab, 64, 2, storage.OnDisk)
	for i := 0; i < 500; i++ {
		b.AppendRow(types.Row{
			types.Str("c" + string(rune('a'+i%7))),
			types.Str("o" + string(rune('a'+i%3))),
			types.Str("u" + string(rune('a'+i%11))),
			types.Float(float64(i)),
		})
	}
	b.Finish()
	c := New()
	c.Register(tab)
	mustFam := func(phi types.ColumnSet) *sample.Family {
		var f *sample.Family
		var err error
		if phi.Empty() {
			f, err = sample.BuildUniform(tab, []int64{50, 200}, sample.BuildConfig{Seed: 1})
		} else {
			f, err = sample.Build(tab, phi, []int64{5, 50}, sample.BuildConfig{Seed: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddFamily("sessions", f); err != nil {
			t.Fatal(err)
		}
		return f
	}
	mustFam(types.NewColumnSet("city"))
	mustFam(types.NewColumnSet("os", "url"))
	mustFam(types.NewColumnSet())
	return c, tab
}

func TestLookupCaseInsensitive(t *testing.T) {
	c, tab := buildFixture(t)
	e, err := c.Lookup("SESSIONS")
	if err != nil {
		t.Fatal(err)
	}
	if e.Table != tab {
		t.Error("wrong table")
	}
	if _, err := c.Lookup("nope"); err == nil {
		t.Error("unknown table should error")
	}
	if got := c.Tables(); len(got) != 1 || got[0] != "sessions" {
		t.Errorf("Tables = %v", got)
	}
}

func TestUniformAndStratifiedAccessors(t *testing.T) {
	c, _ := buildFixture(t)
	e, _ := c.Lookup("sessions")
	if e.Uniform() == nil {
		t.Error("uniform family missing")
	}
	if got := len(e.Stratified()); got != 2 {
		t.Errorf("stratified = %d", got)
	}
	for _, f := range e.Families {
		if f.StorageBytes() <= 0 {
			t.Errorf("%s: sample bytes should be positive", f.Label())
		}
	}
}

func TestCoveringFamilies(t *testing.T) {
	c, _ := buildFixture(t)
	e, _ := c.Lookup("sessions")
	// φ = {city}: covered by [city] only.
	fams := e.CoveringFamilies(types.NewColumnSet("city"))
	if len(fams) != 1 || fams[0].Phi.Key() != "city" {
		t.Errorf("covering(city) = %v", fams)
	}
	// φ = {os}: covered by [os,url].
	fams = e.CoveringFamilies(types.NewColumnSet("os"))
	if len(fams) != 1 || fams[0].Phi.Key() != "os,url" {
		t.Errorf("covering(os) = %v", fams)
	}
	// φ = {city, os}: no covering family.
	if fams = e.CoveringFamilies(types.NewColumnSet("city", "os")); len(fams) != 0 {
		t.Errorf("covering(city,os) = %v", fams)
	}
	// Empty φ is covered by every stratified family, smallest first.
	fams = e.CoveringFamilies(types.NewColumnSet())
	if len(fams) != 2 || fams[0].Phi.Key() != "city" {
		t.Errorf("covering(∅) = %v", fams)
	}
}

func TestAddFamilyReplaces(t *testing.T) {
	c, tab := buildFixture(t)
	snap, _ := c.Lookup("sessions")
	before := len(snap.Families)
	f2, err := sample.Build(tab, types.NewColumnSet("city"), []int64{10, 100}, sample.BuildConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddFamily("sessions", f2); err != nil {
		t.Fatal(err)
	}
	e, _ := c.Lookup("sessions")
	if len(e.Families) != before {
		t.Error("replacement should not grow the family list")
	}
	found := false
	for _, f := range e.Families {
		if f == f2 {
			found = true
		}
	}
	if !found {
		t.Error("new family not installed")
	}
	// The pre-mutation snapshot is immutable: it must still hold the old
	// family, not the replacement.
	for _, f := range snap.Families {
		if f == f2 {
			t.Error("AddFamily mutated a published snapshot")
		}
	}
	if err := c.AddFamily("nope", f2); err == nil {
		t.Error("unknown table should error")
	}
}

func TestDropFamily(t *testing.T) {
	c, _ := buildFixture(t)
	snap, _ := c.Lookup("sessions")
	before := len(snap.Families)
	if err := c.DropFamily("sessions", types.NewColumnSet("city")); err != nil {
		t.Fatal(err)
	}
	e, _ := c.Lookup("sessions")
	if len(e.Families) != before-1 {
		t.Error("family not dropped")
	}
	if len(snap.Families) != before {
		t.Error("DropFamily mutated a published snapshot")
	}
	if err := c.DropFamily("sessions", types.NewColumnSet("city")); err == nil {
		t.Error("double drop should error")
	}
	if err := c.DropFamily("nope", types.NewColumnSet("city")); err == nil {
		t.Error("unknown table should error")
	}
}

// TestVersionBumps pins the invalidation token: every sample or data
// mutation of any table advances the one catalog version, a failed
// mutation does not, and re-registering a table continues the sequence (a
// cached plan from the old data would otherwise validate against the new
// table).
func TestVersionBumps(t *testing.T) {
	c, tab := buildFixture(t) // Register + 3 AddFamily = 4 bumps
	if got := c.Version(); got != 4 {
		t.Fatalf("version after fixture = %d, want 4", got)
	}
	if got := New().Version(); got != 0 {
		t.Fatalf("version of an empty catalog = %d, want 0", got)
	}
	e, _ := c.Lookup("SESSIONS")
	if e.Version != 4 {
		t.Fatalf("snapshot version = %d, want 4", e.Version)
	}
	f2, err := sample.Build(tab, types.NewColumnSet("city"), []int64{10, 100}, sample.BuildConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddFamily("sessions", f2); err != nil {
		t.Fatal(err)
	}
	if got := c.Version(); got != 5 {
		t.Fatalf("version after refresh = %d, want 5", got)
	}
	if err := c.DropFamily("sessions", types.NewColumnSet("city")); err != nil {
		t.Fatal(err)
	}
	if got := c.Version(); got != 6 {
		t.Fatalf("version after drop = %d, want 6", got)
	}
	// Failed mutations change nothing, so they bump nothing.
	if c.DropFamily("sessions", types.NewColumnSet("city")) == nil || c.AddFamily("nope", f2) == nil {
		t.Fatal("a drop of a dropped family and an add to an unknown table must fail")
	}
	if got := c.Version(); got != 6 {
		t.Fatalf("version after failed mutations = %d, want 6", got)
	}
	// Another table shares the counter: its registration is a bump too.
	if r := c.Register(storage.NewTable("other", tab.Schema)); r.Version != 7 {
		t.Fatalf("version returned by registering a second table = %d, want 7", r.Version)
	}
	if other, _ := c.Lookup("other"); other.Version != 7 {
		t.Fatalf("second table's snapshot version = %d, want 7", other.Version)
	}
	// Re-registering continues the sequence instead of restarting.
	c.Register(tab)
	if got := c.Version(); got != 8 {
		t.Fatalf("version after re-register = %d, want 8", got)
	}
	if e.Version != 4 {
		t.Error("mutations changed a published snapshot's version")
	}
}
