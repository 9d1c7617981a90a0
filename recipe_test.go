package blinkdb

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"blinkdb/internal/sample"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// familyRows renders a family's rows, with their sampling metadata, in
// storage order.
func familyRows(f *sample.Family) []string {
	var out []string
	for _, b := range f.Largest().Blocks() {
		for i := 0; i < b.NumRows(); i++ {
			out = append(out, fmt.Sprint(b.RowAt(i), b.MetaAt(i)))
		}
	}
	return out
}

// familyOn returns the table's family on the column set with key phi.
func familyOn(t *testing.T, eng *Engine, table, phi string) *sample.Family {
	t.Helper()
	entry, err := eng.cat.Lookup(table)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range entry.Families {
		if f.Phi.Key() == phi {
			return f
		}
	}
	t.Fatalf("%s has no family on [%s]", table, phi)
	return nil
}

// TestRefreshRotatesFamilies: RefreshSamples re-draws the families one
// after another in catalog order and then wraps around, each time with a
// seed of its own, so every refresh changes the family it replaces; the
// first re-draws family 0 with the seed every refresh used before
// refreshes rotated.
func TestRefreshRotatesFamilies(t *testing.T) {
	eng := demoEngine(t, 20000)
	entry, err := eng.cat.Lookup("sessions")
	if err != nil {
		t.Fatal(err)
	}
	fams := entry.Families
	n := len(fams)
	if n < 2 {
		t.Fatalf("%d families: rotation needs two", n)
	}
	first := fams[0]
	for k := 1; k <= n+1; k++ {
		want := fams[(k-1)%n].Phi.Key()
		before := familyRows(familyOn(t, eng, "sessions", want))
		cols, ok, err := eng.RefreshSamples("sessions")
		if err != nil || !ok {
			t.Fatalf("refresh %d: ok=%v err=%v", k, ok, err)
		}
		if got := types.NewColumnSet(cols...).Key(); got != want {
			t.Fatalf("refresh %d re-drew [%s], want [%s] (family %d of %d)", k, got, want, (k-1)%n, n)
		}
		if reflect.DeepEqual(familyRows(familyOn(t, eng, "sessions", want)), before) {
			t.Errorf("refresh %d left [%s] row for row as it was", k, want)
		}
		if k != 1 {
			continue
		}
		seeded, err := sample.Build(entry.Table, first.Phi, first.Caps, sample.BuildConfig{
			RowsPerBlock: eng.blockRows(entry.Table),
			Nodes:        eng.nodes(),
			Place:        storage.InMemory,
			Seed:         eng.cfg.Seed + 7717 + 7919,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(familyRows(familyOn(t, eng, "sessions", want)), familyRows(seeded)) {
			t.Errorf("the first refresh of [%s] is not the seed-%d draw", want, eng.cfg.Seed+7717+7919)
		}
	}
}

// stratifiedKeys returns the keys of the table's stratified families.
func stratifiedKeys(t *testing.T, eng *Engine, table string) map[string]bool {
	t.Helper()
	entry, err := eng.cat.Lookup(table)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, f := range entry.Stratified() {
		out[f.Phi.Key()] = true
	}
	return out
}

// TestRefreshDuringMaintain races a refresh against a forced Maintain pass
// whose workload flips between [genre] and [city]+[os] every round (run it
// with -race). A refresh must never bring back a family the re-solve
// dropped: after each round the stratified families are exactly the ones
// the round's re-solve kept or built.
func TestRefreshDuringMaintain(t *testing.T) {
	eng := demoEngine(t, 20000)
	workloads := [][]Template{
		{{Columns: []string{"genre"}, Weight: 1}},
		{{Columns: []string{"city"}, Weight: 0.7}, {Columns: []string{"os"}, Weight: 0.3}},
	}
	have := stratifiedKeys(t, eng, "sessions")
	for round := 0; round < 20; round++ {
		var rep *MaintainReport
		var maintErr, refreshErr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			rep, maintErr = eng.Maintain("sessions", MaintainOptions{Templates: workloads[round%2], Force: true})
		}()
		go func() {
			defer wg.Done()
			_, _, refreshErr = eng.RefreshSamples("sessions")
		}()
		wg.Wait()
		if maintErr != nil || refreshErr != nil {
			t.Fatalf("round %d: maintain: %v, refresh: %v", round, maintErr, refreshErr)
		}
		chosen := map[string]bool{}
		for k := range have {
			chosen[k] = true
		}
		for _, cols := range rep.Dropped {
			delete(chosen, types.NewColumnSet(cols...).Key())
		}
		for _, cols := range rep.Built {
			chosen[types.NewColumnSet(cols...).Key()] = true
		}
		have = stratifiedKeys(t, eng, "sessions")
		if !reflect.DeepEqual(have, chosen) {
			t.Errorf("round %d: stratified families %v, the re-solve chose %v", round, have, chosen)
		}
	}
}

// TestNoSamplesYet: a table CreateSamples never ran on has no recipe —
// Maintain refuses it and RefreshSamples has nothing to re-draw — and a
// re-loaded table loses the recipe of the one it replaced.
func TestNoSamplesYet(t *testing.T) {
	eng := Open(Config{})
	load := eng.CreateTable("sessions", Col("city", String), Col("sessiontime", Float))
	for i := 0; i < 1000; i++ {
		if err := load.Append(fmt.Sprintf("city%d", i%7), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.Close(); err != nil {
		t.Fatal(err)
	}
	tpl := []Template{{Columns: []string{"city"}, Weight: 1}}
	check := func(when string) {
		t.Helper()
		if _, err := eng.Maintain("sessions", MaintainOptions{Templates: tpl}); err == nil {
			t.Errorf("%s: Maintain should fail", when)
		}
		if cols, ok, err := eng.RefreshSamples("sessions"); err != nil || ok {
			t.Errorf("%s: RefreshSamples = %v, ok=%v, err=%v; want ok=false", when, cols, ok, err)
		}
	}
	check("before CreateSamples")
	if _, err := eng.CreateSamples("sessions", SampleOptions{Templates: tpl}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := eng.RefreshSamples("sessions"); err != nil || !ok {
		t.Fatalf("after CreateSamples: ok=%v err=%v", ok, err)
	}
	load = eng.CreateTable("sessions", Col("city", String), Col("sessiontime", Float))
	if err := load.Append("city0", 1.0); err != nil {
		t.Fatal(err)
	}
	if err := load.Close(); err != nil {
		t.Fatal(err)
	}
	check("after the table was re-loaded")
}
