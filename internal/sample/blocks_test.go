package sample

import (
	"path/filepath"
	"slices"
	"testing"

	"blinkdb/internal/blockfile"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// concatDeltas is what View.Blocks and View.DeltaBlocks used to build per
// call: deltas lo..hi's block lists end to end.
func concatDeltas(f *Family, lo, hi int) []*storage.Block {
	var out []*storage.Block
	for i := lo; i <= hi; i++ {
		out = append(out, f.Deltas[i].Blocks...)
	}
	return out
}

// TestViewBlocksAreClipped: views hand out windows on one list per family.
// For every (level, smaller) pair of a built, a uniform, a persist-loaded and
// a refreshed family the windows hold exactly the blocks the per-call
// concatenation of Deltas[i].Blocks held, leave no spare capacity, and an
// append on one copies — it never writes into the family's list.
func TestViewBlocksAreClipped(t *testing.T) {
	base := skewedTable(t, []int{4000, 1500, 600, 200, 60, 20, 5})
	cfg := BuildConfig{RowsPerBlock: 16, Nodes: 4, Place: storage.InMemory, Seed: 5}
	built, err := Build(base, types.NewColumnSet("city"), GeometricCaps(400, 2, 5, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := BuildUniform(base, GeometricCaps(2000, 2, 5, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fam.seg")
	if err := blockfile.WriteSegment(path, func(w *blockfile.Writer) error {
		return WriteFamily(w, built)
	}); err != nil {
		t.Fatal(err)
	}
	seg, err := blockfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	loaded, err := ReadFamily(seg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// maintenance.Refresher's re-draw: the old family's φ and caps, a new seed.
	recfg := cfg
	recfg.Seed += 7919
	refreshed, err := Build(base, built.Phi, built.Caps, recfg)
	if err != nil {
		t.Fatal(err)
	}

	foreign := uniform.View(0)
	for name, f := range map[string]*Family{"built": built, "uniform": uniform, "loaded": loaded, "refreshed": refreshed} {
		if f.Resolutions() < 3 {
			t.Fatalf("%s: %d resolutions, want a real chain", name, f.Resolutions())
		}
		all := concatDeltas(f, 0, f.Resolutions()-1)
		check := func(what string, got, want []*storage.Block) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("%s %s: %d blocks, want the %d of the concatenated deltas", name, what, len(got), len(want))
			}
			if cap(got) != len(got) {
				t.Fatalf("%s %s: cap %d over len %d: an append would write into the family's list", name, what, cap(got), len(got))
			}
			_ = append(got, &storage.Block{})
			if !slices.Equal(f.Largest().Blocks(), all) {
				t.Fatalf("%s %s: append on the returned slice changed the family's list", name, what)
			}
		}
		for level := 0; level < f.Resolutions(); level++ {
			v := f.View(level)
			check("Blocks", v.Blocks(), concatDeltas(f, 0, level))
			for smaller := 0; smaller < f.Resolutions(); smaller++ {
				check("DeltaBlocks", v.DeltaBlocks(f.View(smaller)), concatDeltas(f, smaller+1, level))
			}
			if f != uniform {
				// Another family's view shares nothing: the whole resolution is the delta.
				check("DeltaBlocks(foreign)", v.DeltaBlocks(foreign), concatDeltas(f, 0, level))
			}
		}
	}
}
