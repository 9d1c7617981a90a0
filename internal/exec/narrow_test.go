package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// narrowBase and bandBase are the smallest values of narrowTable's n and m
// columns; m sits past 2^53, where a float constant no longer maps to an
// int threshold and the scan converts each value.
const (
	narrowBase = 1_000_000
	bandBase   = 1 << 60
)

// narrowTable builds a table whose int columns the builder stores narrow
// (a minimum plus 16-bit offsets): n spans exactly 65,535 with NULLs, k
// spans 40,000 without, g holds 7 values to group by, m sits in the 2^53
// to 2^63 band; beside them a bool, a dictionary and a float measure.
func narrowTable(t testing.TB) *storage.Table {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "n", Kind: types.KindInt},
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "g", Kind: types.KindInt},
		types.Column{Name: "m", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindBool},
		types.Column{Name: "d", Kind: types.KindString},
		types.Column{Name: "v", Kind: types.KindFloat},
	)
	const rows = 20000
	tab := storage.NewTable("t", schema)
	b := storage.NewBuilder(tab, 300, 3, storage.InMemory)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < rows; i++ {
		n := types.Int(narrowBase + rng.Int63n(65536))
		switch {
		case i == 1:
			n = types.Int(narrowBase)
		case i == 2:
			n = types.Int(narrowBase + 65535)
		case i < 50 || i%10 == 0:
			n = types.Null()
		}
		b.Append(types.Row{
			n,
			types.Int(7 + rng.Int63n(40001)),
			types.Int(100 + rng.Int63n(7)),
			types.Int(bandBase + rng.Int63n(65536)),
			types.Bool(rng.Intn(3) == 0),
			types.Str([]string{"x", "y", "z"}[rng.Intn(3)]),
			types.Float(rng.NormFloat64() * 100),
		}, storage.RowMeta{Rate: 0.5, StratumFreq: int64(1 + i/5000)})
	}
	tab = b.Finish()
	for _, d := range tab.Chunks() {
		for c := 0; c < 5; c++ {
			if !d.Cols[c].Narrow() {
				t.Fatalf("column %s is not narrow", schema.Columns[c].Name)
			}
		}
	}
	return tab
}

// TestNarrowIntsMatchOracle holds the scan over narrow int columns to the
// oracle on both kernel sets, over the table and a weighted view: every
// comparison and two-sided intervals with constants below, at the edges
// of, inside and above the column's window, float constants (in the 2^53
// to 2^63 band too), SUM/AVG/MEDIAN of a narrow column with and without
// NULLs, alone and per dictionary code, and GROUP BY a narrow column.
func TestNarrowIntsMatchOracle(t *testing.T) {
	tab := narrowTable(t)
	var queries []string
	consts := []int64{0, narrowBase - 1, narrowBase, narrowBase + 1, narrowBase + 300, narrowBase + 32768,
		narrowBase + 65535, narrowBase + 65536, 1 << 62}
	for _, c := range consts {
		for _, op := range []string{"<", "<=", "=", "<>", ">", ">="} {
			queries = append(queries, fmt.Sprintf(`SELECT COUNT(*), SUM(v) FROM t WHERE n %s %d`, op, c))
		}
	}
	for i, lo := range consts {
		for _, hi := range consts[i:] {
			queries = append(queries, fmt.Sprintf(`SELECT COUNT(*), AVG(v) FROM t WHERE n >= %d AND n < %d`, lo, hi))
		}
	}
	for _, op := range []string{"<", "=", ">="} {
		queries = append(queries,
			fmt.Sprintf(`SELECT COUNT(*) FROM t WHERE n %s %d.5`, op, narrowBase+700),
			fmt.Sprintf(`SELECT COUNT(*) FROM t WHERE m %s %d.0`, op, bandBase+32768),
			fmt.Sprintf(`SELECT COUNT(*) FROM t WHERE m %s %d`, op, bandBase+32768),
			fmt.Sprintf(`SELECT COUNT(*) FROM t WHERE b %s 0.5`, op))
	}
	queries = append(queries,
		`SELECT SUM(k), AVG(k), COUNT(*) FROM t WHERE n < 1030000`,
		`SELECT SUM(k), AVG(k) FROM t`,
		`SELECT SUM(n), AVG(n), COUNT(n) FROM t WHERE k > 20000`,
		`SELECT MEDIAN(k) FROM t WHERE n >= 1010000`,
		`SELECT SUM(k), AVG(m) FROM t WHERE k < 30000 GROUP BY d`,
		`SELECT AVG(k), SUM(b), COUNT(*) FROM t WHERE n > 1005000 GROUP BY g`,
		`SELECT SUM(v) FROM t WHERE g = 103 OR n = 1000000 GROUP BY g, b`,
	)
	forKernelSets(t, func(t *testing.T) {
		for _, src := range queries {
			p := compile(t, src, tab.Schema)
			checkOracle(t, src, p, FromTable(tab), nil)
			checkOracle(t, src+" weighted", p, viewOf(tab.Schema, tab.Blocks, 20, 60), nil)
		}
	})
}
