package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// BenchmarkZoneCheck times the per-block zone checks — the pruning verdict
// (zoneMayMatch) and then the all-true one (zoneImpliesPred) — over every
// 308-row block of a 100k-row table, per kind of comparison: strings
// against dictionary zones, strings against run-length ones, ints against
// int zones, ints against run-length int zones, and numbers of the other
// kind (mixed: a float bound on an int column beside a float column).
// ns/block is per block, both checks.
//
//	go test -run '^$' -bench BenchmarkZoneCheck ./internal/exec
func BenchmarkZoneCheck(b *testing.B) {
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "grp", Kind: types.KindString},
		types.Column{Name: "dt", Kind: types.KindInt},
		types.Column{Name: "x", Kind: types.KindFloat},
		types.Column{Name: "day", Kind: types.KindInt},
	)
	tab := storage.NewTable("zones", schema)
	bld := storage.NewBuilder(tab, 308, 4, storage.InMemory)
	bld.HintSortedColumns(1, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		bld.AppendRow(types.Row{
			types.Str(fmt.Sprintf("city%02d", rng.Intn(40))),
			types.Str(fmt.Sprintf("g%02d", i/2000)),
			types.Int(int64(i/100 + rng.Intn(50))),
			types.Float(rng.ExpFloat64() * 60),
			types.Int(int64(i / 1000)),
		})
	}
	blocks := bld.Finish().Blocks
	for _, c := range []struct{ name, where string }{
		{"dict", "city >= 'city07' AND city <= 'city30'"},
		{"rle-string", "grp >= 'g05' AND grp < 'g40'"},
		{"int", "dt >= 100 AND dt < 900"},
		{"rle-int", "day >= 5 AND day < 90"},
		{"mixed", "dt > 100.5 AND x < 1000.0"},
	} {
		q, err := sqlparser.Parse("SELECT COUNT(*) FROM zones WHERE " + c.where)
		if err != nil {
			b.Fatal(err)
		}
		pred, err := q.Where.Resolve(schema)
		if err != nil {
			b.Fatal(err)
		}
		bounds, leaves := boundList(ColumnBounds(pred)), conjunctiveLeaves(pred)
		b.Run(c.name, func(b *testing.B) {
			kept, implied := 0, 0
			for i := 0; i < b.N; i++ {
				kept, implied = 0, 0
				for _, blk := range blocks {
					if zoneMayMatch(blk, bounds) {
						kept++
						if zoneImpliesPred(blk, leaves) {
							implied++
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)), "ns/block")
			b.ReportMetric(float64(kept)/float64(len(blocks)), "kept")
			b.ReportMetric(float64(implied)/float64(len(blocks)), "implied")
		})
	}
}
