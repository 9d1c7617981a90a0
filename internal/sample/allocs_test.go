//go:build !race

package sample

import (
	"fmt"
	"math/rand"
	"testing"

	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// TestBuildAllocs pins Build's allocations as independent of the base
// row count: it numbers strata with colstore.Strata and copies sampled
// rows through one buffer, so a base four times larger costs only what
// more base blocks and more chunks written cost — the same sample size
// here, so the same chunks — not an allocation per row.
func TestBuildAllocs(t *testing.T) {
	phi := types.NewColumnSet("city", "os")
	caps := []int64{100, 1000}
	measure := func(rows int) (allocs float64, chunks int) {
		tab := storage.NewTable("sessions", sessionsSchema())
		b := storage.NewBuilder(tab, 1000, 4, storage.OnDisk)
		rng := rand.New(rand.NewSource(int64(rows)))
		oses := []string{"Win7", "OSX", "Linux"}
		for i := 0; i < rows; i++ {
			b.AppendRow(types.Row{
				types.Str(fmt.Sprintf("city%02d", rng.Intn(10))),
				types.Str(oses[rng.Intn(3)]),
				types.Float(rng.Float64() * 100),
			})
		}
		b.Finish()
		var fam *Family
		allocs = testing.AllocsPerRun(3, func() {
			var err error
			if fam, err = Build(tab, phi, caps, BuildConfig{Seed: 1}); err != nil {
				t.Fatal(err)
			}
		})
		for _, d := range fam.Deltas {
			chunks += len(d.Chunks())
		}
		return allocs, chunks
	}
	small, smallChunks := measure(50000)
	large, largeChunks := measure(200000)
	t.Logf("Build: %.0f allocs/op over 50k rows, %.0f over 200k (%d chunks written)", small, large, largeChunks)
	if smallChunks != largeChunks {
		t.Fatalf("the two builds write %d and %d chunks, meant to be the same", smallChunks, largeChunks)
	}
	if large > small+16 {
		t.Errorf("Build allocates %.0f objects over 200k rows, %.0f over 50k: it grows with the base", large, small)
	}
}
