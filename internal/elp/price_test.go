package elp

import (
	"math"
	"testing"

	"blinkdb/internal/catalog"
	"blinkdb/internal/exec"
	"blinkdb/internal/sample"
	"blinkdb/internal/storage"
)

// familyWindows returns every window resolution selection prices over
// fam: each resolution's view, and its delta past every smaller one.
func familyWindows(fam *sample.Family) [][]*storage.Block {
	var out [][]*storage.Block
	for l := 0; l < fam.Resolutions(); l++ {
		out = append(out, fam.View(l).Blocks())
		for k := 0; k < l; k++ {
			out = append(out, fam.View(l).DeltaBlocks(fam.View(k)))
		}
	}
	return out
}

// TestWindowPricesMatchLatencyOf pins the price memo: every window of every
// family and the base table prices, memoized, to latencyOf's bits — on the
// pricing miss and on the hit after it — and a window the plan prunes is
// priced as it is read. A sample refresh (what RefreshSamples does: a new
// family, a new version) drops every price of the replaced family's windows
// the first time the new snapshot asks for one.
func TestWindowPricesMatchLatencyOf(t *testing.T) {
	f := newFixture(t, 20000, Options{})
	rt := f.rt
	entry, err := f.cat.Lookup("sessions")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := exec.Compile(parse(t, `SELECT COUNT(*) FROM sessions WHERE city = 'city3' ERROR WITHIN 5%`), entry.Table.Schema)
	if err != nil {
		t.Fatal(err)
	}
	bits := math.Float64bits
	check := func(entry *catalog.Entry, w []*storage.Block) {
		t.Helper()
		want := rt.latencyOf(w)
		for pass := 0; pass < 2; pass++ {
			if got := rt.windowPrice(entry, w, w); bits(got) != bits(want) {
				t.Fatalf("window of %d blocks, pass %d: memo prices %v, latencyOf %v", len(w), pass, got, want)
			}
		}
		if got, want := rt.readPrice(entry, plan, w), rt.latencyOf(plan.Prune(w)); bits(got) != bits(want) {
			t.Fatalf("window of %d blocks read by %s: %v, latencyOf %v", len(w), plan.Pred, got, want)
		}
	}
	pruned := 0
	for _, fam := range entry.Families {
		for _, w := range familyWindows(fam) {
			check(entry, w)
			if len(plan.Prune(w)) < len(w) {
				pruned++
			}
		}
	}
	check(entry, entry.Table.Blocks)
	if got, want := rt.tablePrice(entry), rt.latencyOf(entry.Table.Blocks); bits(got) != bits(want) {
		t.Fatalf("base table: %v, latencyOf %v", got, want)
	}
	if pruned == 0 {
		t.Fatal("no window was pruned: the test needs both kinds")
	}

	// Refresh the city family: the next snapshot's first price drops the
	// old version's, the replaced family's windows among them.
	old := entry.Families[0]
	fresh, err := sample.Build(f.tab, old.Phi, old.Caps, sample.BuildConfig{Seed: 99, Nodes: 100, Place: storage.InMemory, RowsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.cat.AddFamily("sessions", fresh); err != nil {
		t.Fatal(err)
	}
	next, err := f.cat.Lookup("sessions")
	if err != nil {
		t.Fatal(err)
	}
	check(next, fresh.View(1).Blocks())
	pm := &rt.prices
	if pm.version != next.Version || len(pm.prices) != 1 {
		t.Fatalf("after the refresh the memo holds %d prices of version %d, want the new version's one price", len(pm.prices), pm.version)
	}
	for _, w := range familyWindows(old) {
		if _, ok := pm.prices[window{&w[0], len(w)}]; ok {
			t.Fatal("a replaced family's window price survived the refresh")
		}
	}
	// The stale snapshot is still priced right, and keeps nothing.
	check(entry, old.View(2).Blocks())
	if len(pm.prices) != 1 {
		t.Fatal("a stale snapshot's price was kept")
	}
}
