package workload

import (
	"math"
	"math/rand"
	"testing"

	"blinkdb/internal/exec"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

func TestConvivaGeneration(t *testing.T) {
	d := Conviva(ConvivaConfig{Rows: 20000, Seed: 1})
	if d.Name != "conviva" {
		t.Errorf("name = %q", d.Name)
	}
	if d.Table.NumRows() != 20000 {
		t.Errorf("rows = %d", d.Table.NumRows())
	}
	if err := storage.Validate(d.Table, 100); err != nil {
		t.Fatal(err)
	}
	if len(d.Templates) != 7 {
		t.Errorf("templates = %d", len(d.Templates))
	}
}

func TestConvivaCitySkew(t *testing.T) {
	d := Conviva(ConvivaConfig{Rows: 50000, Seed: 2})
	idx := d.Table.Schema.Index("city")
	counts := map[string]int{}
	d.Table.Scan(func(r types.Row, _ storage.RowMeta) bool {
		counts[r[idx].S]++
		return true
	})
	// Zipf: the top city should hold a large share, and there should be a
	// long tail of rare cities.
	max, rare := 0, 0
	for _, c := range counts {
		if c > max {
			max = c
		}
		if c < 10 {
			rare++
		}
	}
	if float64(max)/50000 < 0.15 {
		t.Errorf("top city share %.3f too small for Zipf 1.5", float64(max)/50000)
	}
	if rare < 50 {
		t.Errorf("only %d rare cities; want a long tail", rare)
	}
}

func TestConvivaGenreUniform(t *testing.T) {
	d := Conviva(ConvivaConfig{Rows: 40000, Seed: 3})
	idx := d.Table.Schema.Index("genre")
	counts := map[string]int{}
	d.Table.Scan(func(r types.Row, _ storage.RowMeta) bool {
		counts[r[idx].S]++
		return true
	})
	if len(counts) != 8 {
		t.Fatalf("genres = %d", len(counts))
	}
	for g, c := range counts {
		share := float64(c) / 40000
		if math.Abs(share-0.125) > 0.02 {
			t.Errorf("genre %s share %.3f, want ≈ 0.125 (uniform)", g, share)
		}
	}
}

func TestTemplateWeightsSumNearOne(t *testing.T) {
	for _, d := range []*Dataset{
		Conviva(ConvivaConfig{Rows: 100, Seed: 1}),
		TPCH(TPCHConfig{Rows: 100, Seed: 1}),
	} {
		sum := 0.0
		for _, tpl := range d.Templates {
			sum += tpl.Weight
		}
		if math.Abs(sum-1) > 0.05 {
			t.Errorf("%s template weights sum to %.3f", d.Name, sum)
		}
	}
}

func TestAllTemplateQueriesParseAndCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, d := range []*Dataset{
		Conviva(ConvivaConfig{Rows: 100, Seed: 1}),
		TPCH(TPCHConfig{Rows: 100, Seed: 1}),
	} {
		for _, tpl := range d.Templates {
			for trial := 0; trial < 10; trial++ {
				src := tpl.Gen(rng, "ERROR WITHIN 10% AT CONFIDENCE 95%")
				q, err := sqlparser.Parse(src)
				if err != nil {
					t.Fatalf("%s/%s: parse %q: %v", d.Name, tpl.Name, src, err)
				}
				plan, err := exec.Compile(q, d.Table.Schema)
				if err != nil {
					t.Fatalf("%s/%s: compile %q: %v", d.Name, tpl.Name, src, err)
				}
				// Template column declaration must match the query's
				// WHERE and GROUP BY columns.
				cs := plan.Pred.Columns().Union(types.NewColumnSet(q.GroupBy...))
				if !cs.SubsetOf(tpl.Columns) {
					t.Errorf("%s/%s: query columns %v not within declared %v",
						d.Name, tpl.Name, cs, tpl.Columns)
				}
			}
		}
	}
}

func TestTPCHOrderStructure(t *testing.T) {
	d := TPCH(TPCHConfig{Rows: 30000, Seed: 5})
	okIdx := d.Table.Schema.Index("orderkey")
	counts := map[int64]int{}
	d.Table.Scan(func(r types.Row, _ storage.RowMeta) bool {
		counts[r[okIdx].I]++
		return true
	})
	for ok, c := range counts {
		if c < 1 || c > 7 {
			t.Fatalf("order %d has %d lines; spec is 1-7", ok, c)
		}
	}
	// Average close to 4.
	avg := 30000.0 / float64(len(counts))
	if avg < 3 || avg > 5 {
		t.Errorf("avg lines/order = %.2f", avg)
	}
}

func TestDrawTemplateFollowsWeights(t *testing.T) {
	d := Conviva(ConvivaConfig{Rows: 100, Seed: 1})
	rng := rand.New(rand.NewSource(6))
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[d.DrawTemplate(rng).Name]++
	}
	// T1 weight 0.39, T4 weight 0.317.
	if got := float64(counts["T1"]) / n; math.Abs(got-0.39) > 0.03 {
		t.Errorf("T1 draw rate = %.3f, want ≈ 0.39", got)
	}
	if got := float64(counts["T4"]) / n; math.Abs(got-0.317) > 0.03 {
		t.Errorf("T4 draw rate = %.3f, want ≈ 0.317", got)
	}
}

func TestTemplateLookup(t *testing.T) {
	d := TPCH(TPCHConfig{Rows: 100, Seed: 1})
	if d.Template("T3") == nil {
		t.Error("T3 missing")
	}
	if d.Template("T99") != nil {
		t.Error("T99 should be nil")
	}
	if len(d.OptimizerTemplates()) != len(d.Templates) {
		t.Error("OptimizerTemplates length mismatch")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Conviva(ConvivaConfig{Rows: 1000, Seed: 9})
	b := Conviva(ConvivaConfig{Rows: 1000, Seed: 9})
	if a.Table.Bytes() != b.Table.Bytes() {
		t.Error("same seed must give identical tables")
	}
	c := Conviva(ConvivaConfig{Rows: 1000, Seed: 10})
	if a.Table.Bytes() == c.Table.Bytes() {
		t.Error("different seeds should differ (byte sizes almost surely)")
	}
}

func BenchmarkConvivaGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Conviva(ConvivaConfig{Rows: 50000, Seed: int64(i)})
	}
}
