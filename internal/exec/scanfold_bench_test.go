package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"blinkdb/internal/sample"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// scanFoldTable is a 250k-row table in the shape of the repo benchmark's
// sessions table, at its priced-block size (308 rows): two skewed string
// dimensions of 40 values, a 4-valued one, an int date and two float
// measures.
func scanFoldTable(tb testing.TB) *storage.Table {
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "device", Kind: types.KindString},
		types.Column{Name: "genre", Kind: types.KindString},
		types.Column{Name: "dt", Kind: types.KindInt},
		types.Column{Name: "sessiontime", Kind: types.KindFloat},
		types.Column{Name: "buffering", Kind: types.KindFloat},
	)
	tab := storage.NewTable("sessions", schema)
	b := storage.NewBuilder(tab, 308, 4, storage.InMemory)
	rng := rand.New(rand.NewSource(1))
	skewed := func(n int) int { // a few values take most rows
		return int(float64(n) * rng.Float64() * rng.Float64() * rng.Float64())
	}
	for i := 0; i < 250000; i++ {
		g := rng.Intn(4)
		b.AppendRow(types.Row{
			types.Str(fmt.Sprintf("city%02d", skewed(40))),
			types.Str(fmt.Sprintf("device%02d", skewed(40))),
			types.Str(fmt.Sprintf("genre%d", g)),
			types.Int(int64(rng.Intn(1000))),
			types.Float(rng.ExpFloat64() * 60 * float64(1+g)),
			types.Float(rng.ExpFloat64() * 0.8),
		})
	}
	return b.Finish()
}

// BenchmarkScanFold measures the columnar scan on the request shapes of the
// repo benchmark's adhoc_scan mix — a date range taking 85% of the rows in
// front of ungrouped and dictionary-grouped folds — and on a count probe,
// over the table and over a 10% uniform sample of it (one sampling rate
// below 1). One worker: the kernels, not the schedule.
func BenchmarkScanFold(b *testing.B) {
	tab := scanFoldTable(b)
	fam, err := sample.BuildUniform(tab, []int64{tab.NumRows() / 10}, sample.BuildConfig{RowsPerBlock: 308, Nodes: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	inputs := []struct {
		name string
		in   Input
	}{{"table", FromTable(tab)}, {"view10", FromView(fam.Largest())}}
	for _, q := range []struct {
		name, src string
		count     bool // Count the plan, as a §4.1.1 probe does
	}{
		{"range+AVG", `SELECT AVG(sessiontime) FROM sessions WHERE dt >= 70 AND dt < 920`, false},
		{"range+COUNT,AVG", `SELECT COUNT(*), AVG(sessiontime) FROM sessions WHERE dt >= 70 AND dt < 920`, false},
		{"dict-eq+range+SUM,COUNT", `SELECT SUM(buffering), COUNT(*) FROM sessions WHERE device = 'device00' AND dt >= 70 AND dt < 920`, false},
		{"range+AVG GROUP BY dict(4)", `SELECT COUNT(*), AVG(buffering) FROM sessions WHERE dt >= 70 AND dt < 920 GROUP BY genre`, false},
		{"GROUP BY dict(40)", `SELECT AVG(sessiontime) FROM sessions WHERE dt >= 70 AND dt < 920 GROUP BY city`, false},
		{"count-only", `SELECT AVG(sessiontime) FROM sessions WHERE device = 'device00' AND dt >= 70 AND dt < 920 GROUP BY city`, true},
	} {
		p := compile(b, q.src, tab.Schema)
		for _, leg := range inputs {
			b.Run(q.name+"/"+leg.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if q.count {
						Count(context.Background(), p, leg.in, nil)
					} else {
						RunParallel(p, leg.in, 0.95, 1)
					}
				}
			})
		}
	}
}
