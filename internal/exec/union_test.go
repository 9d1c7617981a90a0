package exec

import (
	"context"
	"math"
	"reflect"
	"testing"

	"blinkdb/internal/stats"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// disjointParts splits p's predicate into §4.1.2's disjoint sub-queries:
// disjunct i scans d_i AND NOT d_1 … AND NOT d_(i−1).
func disjointParts(p *Plan) []*Plan {
	own := types.SplitDisjuncts(p.Pred)
	parts := make([]*Plan, len(own))
	for i, d := range own {
		kids := []types.Predicate{d}
		for _, prev := range own[:i] {
			kids = append(kids, &types.NotPred{Kid: prev})
		}
		parts[i] = p.WithPred(&types.AndPred{Kids: kids})
	}
	return parts
}

// unionOf reads each part of p's disjunction from its input on a chain of
// its own and returns the chains and each chain's own answer.
func unionOf(t *testing.T, p *Plan, ins ...Input) ([]*Chain, []*Result) {
	t.Helper()
	parts := disjointParts(p)
	if len(parts) != len(ins) {
		t.Fatalf("%d disjuncts, %d inputs", len(parts), len(ins))
	}
	chains := make([]*Chain, len(parts))
	own := make([]*Result, len(parts))
	for i, part := range parts {
		chains[i] = NewChain(part, nil)
		res, err := chains[i].Extend(context.Background(), ins[i], 0.95, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		own[i] = res
	}
	return chains, own
}

// TestUnionDisjuncts: a disjunction's exact parts add up per group, each
// row counted once, as the oracle counts the OR predicate.
func TestUnionDisjuncts(t *testing.T) {
	tab := paperTable(t)
	p := compile(t, `SELECT COUNT(*) FROM sessions WHERE city = 'New York' OR city = 'Berkeley' OR browser = 'Firefox' GROUP BY browser`, tab.Schema)
	chains, _ := unionOf(t, p, FromTable(tab), FromTable(tab), FromTable(tab))
	got := Union(p, chains, 0.95)
	want := oracle(p, FromTable(tab), nil, 0.95)
	if !reflect.DeepEqual(got.Groups, want.Groups) || got.RowsMatched != want.RowsMatched || got.WeightedMatched != want.WeightedMatched {
		t.Fatalf("union\n%+v\noracle\n%+v", got, want)
	}
}

// TestUnionAcrossCaps: parts read at different caps — a stratified
// family's small resolution and the base table — join at their own
// weights. COUNT and SUM are the sums of the parts' and their variances
// add; AVG is Σwx/Σw over every part's rows (the parts' SUMs over their
// COUNTs), not a mean of the parts' means. The chains are only read: each
// answers as before, and a second union answers as the first.
func TestUnionAcrossCaps(t *testing.T) {
	tab := chainTable(t)
	fam := chainFamilies(t, tab)[0]
	for _, src := range []string{
		`SELECT COUNT(*), SUM(v), AVG(v) FROM t WHERE city = 'c6' OR os = 'Win7'`,
		`SELECT COUNT(*), SUM(v), AVG(v) FROM t WHERE city = 'c6' OR code < 80 GROUP BY os`,
	} {
		p := compile(t, src, tab.Schema)
		sampled := FromView(fam.View(1))
		chains, own := unionOf(t, p, sampled, FromTable(tab))
		got := Union(p, chains, 0.95)
		if got.RowsMatched != own[0].RowsMatched+own[1].RowsMatched || got.RowsScanned != own[0].RowsScanned+own[1].RowsScanned {
			t.Fatalf("%s: counters %+v from parts %+v, %+v", src, got, own[0], own[1])
		}
		if want := own[0].WeightedMatched + own[1].WeightedMatched; !near(got.WeightedMatched, want) {
			t.Fatalf("%s: WeightedMatched %g, parts add to %g", src, got.WeightedMatched, want)
		}
		parts := [2]map[string]Group{groupsByKey(own[0]), groupsByKey(own[1])}
		if len(got.Groups) == 0 {
			t.Fatalf("%s: no groups", src)
		}
		for _, g := range got.Groups {
			a, b := parts[0][g.KeyString()], parts[1][g.KeyString()]
			if a.Estimates == nil || b.Estimates == nil {
				t.Fatalf("%s: group %s is missing from a part", src, g.KeyString())
			}
			est := func(gr Group, i int) stats.Estimate { return gr.Estimates[i] }
			count, sum, avg := g.Estimates[0], g.Estimates[1], g.Estimates[2]
			if count.Exact || avg.Exact {
				t.Fatalf("%s %s: a sampled part's union is marked exact", src, g.KeyString())
			}
			if count.Rows != est(a, 0).Rows+est(b, 0).Rows {
				t.Fatalf("%s %s: %d rows, parts %d + %d", src, g.KeyString(), count.Rows, est(a, 0).Rows, est(b, 0).Rows)
			}
			n := est(a, 0).Point + est(b, 0).Point
			s := est(a, 1).Point + est(b, 1).Point
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"COUNT", count.Point, n},
				{"SUM", sum.Point, s},
				{"AVG", avg.Point, s / n},
				{"COUNT var", count.StdErr * count.StdErr, est(a, 0).StdErr*est(a, 0).StdErr + est(b, 0).StdErr*est(b, 0).StdErr},
				{"SUM var", sum.StdErr * sum.StdErr, est(a, 1).StdErr*est(a, 1).StdErr + est(b, 1).StdErr*est(b, 1).StdErr},
			} {
				if !near(c.got, c.want) {
					t.Fatalf("%s %s: %s %g, want %g", src, g.KeyString(), c.name, c.got, c.want)
				}
			}
		}
		for i, c := range chains {
			if again := c.m.result(0.95, c.m.w); !reflect.DeepEqual(own[i], again) {
				t.Fatalf("%s: the union changed part %d's chain", src, i)
			}
		}
		if again := Union(p, chains, 0.95); !reflect.DeepEqual(got, again) {
			t.Fatalf("%s: a second union answers otherwise", src)
		}
	}
}

// TestUnionQuantileExact: a QUANTILE over exact parts is the quantile of
// the union of their values — bit for bit the oracle's on the OR
// predicate, and exact — not a mean of the parts' quantiles.
func TestUnionQuantileExact(t *testing.T) {
	tab := chainTable(t)
	for _, src := range []string{
		`SELECT MEDIAN(v), QUANTILE(v, 0.9), COUNT(*) FROM t WHERE city = 'c6' OR os = 'Win7'`,
		`SELECT MEDIAN(v), QUANTILE(w, 0.25) FROM t WHERE city = 'c5' OR code < 30 GROUP BY os`,
	} {
		p := compile(t, src, tab.Schema)
		chains, _ := unionOf(t, p, FromTable(tab), FromTable(tab))
		got := Union(p, chains, 0.95)
		want := oracle(p, FromTable(tab), nil, 0.95)
		if !reflect.DeepEqual(got.Groups, want.Groups) {
			t.Fatalf("%s: union\n%+v\noracle\n%+v", src, got.Groups, want.Groups)
		}
		for _, g := range got.Groups {
			for _, e := range g.Estimates {
				if !e.Exact || e.Rows == 0 {
					t.Fatalf("%s %s: %+v, want an exact estimate", src, g.KeyString(), e)
				}
			}
		}
	}
}

// TestUnionGroupOrder: a disjunction's int and float GROUP BY keys come
// back in key order and LIMIT keeps the first — what finalize does for any
// answer, so the oracle's order on the OR predicate.
func TestUnionGroupOrder(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "n", Kind: types.KindInt},
		types.Column{Name: "x", Kind: types.KindFloat},
	)
	tab := storage.NewTable("t", schema)
	b := storage.NewBuilder(tab, 64, 2, storage.InMemory)
	for i := 0; i < 2000; i++ {
		b.AppendRow(types.Row{types.Int(int64(i % 40)), types.Float(float64(i % 7))})
	}
	b.Finish()
	for _, c := range []struct {
		src  string
		keys []types.Value
	}{
		{`SELECT COUNT(*) FROM t WHERE n = 9 OR n = 36 GROUP BY n`, []types.Value{types.Int(9), types.Int(36)}},
		{`SELECT COUNT(*) FROM t WHERE n = 9 OR n = 36 GROUP BY n LIMIT 1`, []types.Value{types.Int(9)}},
		{`SELECT COUNT(*) FROM t WHERE x = 2.0 OR x = 4.0 OR x = 6.0 GROUP BY x`, []types.Value{types.Float(2), types.Float(4), types.Float(6)}},
		{`SELECT COUNT(*) FROM t WHERE x = 6.0 OR x = 4.0 OR x = 2.0 GROUP BY x LIMIT 2`, []types.Value{types.Float(2), types.Float(4)}},
	} {
		p := compile(t, c.src, schema)
		ins := make([]Input, len(disjointParts(p)))
		for i := range ins {
			ins[i] = FromTable(tab)
		}
		chains, _ := unionOf(t, p, ins...)
		got := Union(p, chains, 0.95)
		var keys []types.Value
		for _, g := range got.Groups {
			keys = append(keys, g.Key[0])
		}
		if !reflect.DeepEqual(keys, c.keys) {
			t.Fatalf("%s: groups %v, want %v", c.src, keys, c.keys)
		}
		if want := oracle(p, FromTable(tab), nil, 0.95); !reflect.DeepEqual(got.Groups, want.Groups) {
			t.Fatalf("%s: union\n%+v\noracle\n%+v", c.src, got.Groups, want.Groups)
		}
	}
}

// groupsByKey indexes a result's groups by their rendered key.
func groupsByKey(res *Result) map[string]Group {
	out := make(map[string]Group, len(res.Groups))
	for _, g := range res.Groups {
		out[g.KeyString()] = g
	}
	return out
}

// near reports whether a and b agree to 1e-9 relative: sums taken in
// another order.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
