package sample

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"blinkdb/internal/blockfile"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// TestFamilyPersistRoundTrip: build → persist → load must reconstruct
// the family exactly — descriptor fields, per-delta content, per-view
// effective rates — so a warm-booted engine answers bit-identically.
func TestFamilyPersistRoundTrip(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "x", Kind: types.KindFloat},
	)
	base := storage.NewTable("base", schema)
	bld := storage.NewBuilder(base, 128, 2, storage.InMemory)
	for r := 0; r < 3000; r++ {
		bld.Append(types.Row{
			types.Str(fmt.Sprintf("c%d", r%(1+r%37))),
			types.Float(float64(r) * 0.25),
		}, storage.RowMeta{Rate: 1})
	}
	bld.Finish()

	fam, err := Build(base, types.NewColumnSet("city"), []int64{10, 40, 160}, BuildConfig{
		RowsPerBlock: 64, Nodes: 2, Place: storage.InMemory, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "fam.seg")
	if err := blockfile.WriteSegment(path, func(w *blockfile.Writer) error {
		return WriteFamily(w, fam)
	}); err != nil {
		t.Fatal(err)
	}
	seg, err := blockfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	got, err := ReadFamily(seg)
	if err != nil {
		t.Fatal(err)
	}

	if !got.Phi.Equal(fam.Phi) || !reflect.DeepEqual(got.Caps, fam.Caps) {
		t.Fatalf("identity mismatch: %v/%v vs %v/%v", got.Phi, got.Caps, fam.Phi, fam.Caps)
	}
	if got.baseRows != fam.baseRows || got.numStrata != fam.numStrata ||
		got.tailCount != fam.tailCount {
		t.Fatalf("descriptor stats mismatch: %d/%d/%d vs %d/%d/%d",
			got.baseRows, got.numStrata, got.tailCount,
			fam.baseRows, fam.numStrata, fam.tailCount)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("loaded family fails validation: %v", err)
	}
	for level := 0; level < fam.Resolutions(); level++ {
		type rr struct {
			row  string
			rate float64
		}
		collect := func(v View) []rr {
			var out []rr
			v.Scan(func(r types.Row, rate float64) bool {
				out = append(out, rr{types.RowKey(r, []int{0, 1}), rate})
				return true
			})
			return out
		}
		want := collect(fam.View(level))
		have := collect(got.View(level))
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("level %d scan differs (%d vs %d rows)", level, len(want), len(have))
		}
	}
	if got.StorageBytes() != fam.StorageBytes() || got.StorageRows() != fam.StorageRows() {
		t.Fatalf("storage totals differ: %d/%d vs %d/%d",
			got.StorageBytes(), got.StorageRows(), fam.StorageBytes(), fam.StorageRows())
	}
}
