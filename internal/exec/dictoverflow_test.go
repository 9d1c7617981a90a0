package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"blinkdb/internal/colstore"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// overflowTable builds a table whose one priced block is larger than a
// storage chunk: 80,000 rows, so its id column — about 75,000 distinct
// strings, a few of them hot, and NULLs — needs more dictionary entries
// than 16-bit codes reach and is stored verbatim, while its city column
// keeps a dictionary.
func overflowTable(t testing.TB) *storage.Table {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindString},
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "v", Kind: types.KindFloat},
	)
	const rows = 80000
	tab := storage.NewTable("t", schema)
	b := storage.NewBuilder(tab, rows, 3, storage.InMemory)
	rng := rand.New(rand.NewSource(11))
	cities := []string{"NY", "SF", "LA", "Austin"}
	for i := 0; i < rows; i++ {
		id := types.Str(fmt.Sprintf("k%05d", i))
		switch {
		case i%500 == 7:
			id = types.Null()
		case i%16 == 3:
			id = types.Str(fmt.Sprintf("k%05d", i%40)) // hot ids
		}
		b.Append(types.Row{id, types.Str(cities[rng.Intn(len(cities))]), types.Float(rng.ExpFloat64() * 100)},
			storage.RowMeta{Rate: 1, StratumFreq: 1})
	}
	tab = b.Finish()
	chunks := tab.Chunks()
	if len(tab.Blocks) != 1 || len(chunks) != 1 {
		t.Fatalf("%d blocks in %d chunks, want one of each", len(tab.Blocks), len(chunks))
	}
	if id, city := chunks[0].Cols[0].Enc, chunks[0].Cols[1].Enc; id != colstore.EncValue || city != colstore.EncDict {
		t.Fatalf("encodings id %v city %v, want value and dict", id, city)
	}
	return tab
}

// TestDictionaryOverflowMatchesOracle: queries over a column that
// overflowed its dictionary — selections on it, GROUP BY it, and a GROUP BY
// of the dictionary column beside it — return the oracle's Result on both
// kernel sets, over the table and as a weighted view.
func TestDictionaryOverflowMatchesOracle(t *testing.T) {
	tab := overflowTable(t)
	queries := []string{
		`SELECT COUNT(*), SUM(v) FROM t WHERE id = 'k00013'`,
		`SELECT COUNT(*), AVG(v) FROM t WHERE id <> 'k00013' GROUP BY city`,
		`SELECT COUNT(*) FROM t WHERE id < 'k30000' AND city = 'SF'`,
		`SELECT SUM(v) FROM t WHERE id >= 'k79900' GROUP BY id`,
		`SELECT AVG(v), MEDIAN(v) FROM t WHERE city <> 'LA' GROUP BY city`,
	}
	forKernelSets(t, func(t *testing.T) {
		for _, src := range queries {
			p := compile(t, src, tab.Schema)
			checkOracle(t, src, p, FromTable(tab), nil)
			checkOracle(t, src+" weighted", p, viewOf(tab.Schema, tab.Blocks, 50), nil)
		}
	})
}
