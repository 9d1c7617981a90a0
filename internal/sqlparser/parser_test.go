package sqlparser

import (
	"strings"
	"testing"

	"blinkdb/internal/stats"
	"blinkdb/internal/types"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParsePaperQuery1(t *testing.T) {
	// First example query from §2.
	q := mustParse(t, `
		SELECT COUNT(*)
		FROM Sessions
		WHERE Genre = 'western'
		GROUP BY OS
		ERROR WITHIN 10% AT CONFIDENCE 95%`)
	if len(q.Aggs) != 1 || q.Aggs[0].Kind != stats.AggCount || q.Aggs[0].Col != "" {
		t.Errorf("aggs = %+v", q.Aggs)
	}
	if q.Table != "Sessions" {
		t.Errorf("table = %q", q.Table)
	}
	if q.Where == nil || q.Where.String() != "genre = 'western'" {
		t.Errorf("where = %v", q.Where)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "OS" {
		t.Errorf("group by = %v", q.GroupBy)
	}
	if q.Err == nil || !q.Err.Relative || q.Err.Bound != 0.10 || q.Err.Confidence != 0.95 {
		t.Errorf("error bound = %+v", q.Err)
	}
	if q.Time != nil {
		t.Error("no time bound expected")
	}
}

func TestParsePaperQuery2(t *testing.T) {
	// Second example from §2: error-reporting projection + time bound.
	q := mustParse(t, `
		SELECT COUNT(*), RELATIVE ERROR AT 95% CONFIDENCE
		FROM Sessions
		WHERE Genre = 'western'
		GROUP BY OS
		WITHIN 5 SECONDS`)
	if !q.ReportError || q.ReportConfidence != 0.95 {
		t.Errorf("report error = %v at %g", q.ReportError, q.ReportConfidence)
	}
	if q.Time == nil || q.Time.Seconds != 5 {
		t.Errorf("time = %+v", q.Time)
	}
	if q.Err != nil {
		t.Error("no error bound expected")
	}
}

func TestParseFig1Query(t *testing.T) {
	q := mustParse(t, `SELECT COUNT(*) FROM TABLE1 WHERE city = 'NY' WITHIN 1 SECONDS;`)
	if q.Time == nil || q.Time.Seconds != 1 {
		t.Errorf("time = %+v", q.Time)
	}
}

func TestParseAggregates(t *testing.T) {
	q := mustParse(t, `SELECT COUNT(url), SUM(time), AVG(time), MEAN(time),
		MEDIAN(time), QUANTILE(time, 0.9), PERCENTILE(time, 99) FROM s`)
	wantKinds := []stats.AggKind{
		stats.AggCount, stats.AggSum, stats.AggAvg, stats.AggAvg,
		stats.AggQuantile, stats.AggQuantile, stats.AggQuantile,
	}
	if len(q.Aggs) != len(wantKinds) {
		t.Fatalf("aggs = %d", len(q.Aggs))
	}
	for i, k := range wantKinds {
		if q.Aggs[i].Kind != k {
			t.Errorf("agg %d kind = %v, want %v", i, q.Aggs[i].Kind, k)
		}
	}
	if q.Aggs[4].P != 0.5 {
		t.Errorf("median p = %g", q.Aggs[4].P)
	}
	if q.Aggs[5].P != 0.9 {
		t.Errorf("quantile p = %g", q.Aggs[5].P)
	}
	if q.Aggs[6].P != 0.99 {
		t.Errorf("percentile p = %g", q.Aggs[6].P)
	}
	if q.Aggs[0].Col != "url" {
		t.Errorf("count col = %q", q.Aggs[0].Col)
	}
}

func TestParseAlias(t *testing.T) {
	q := mustParse(t, `SELECT AVG(time) AS avg_time FROM s`)
	if q.Aggs[0].Alias != "avg_time" {
		t.Errorf("alias = %q", q.Aggs[0].Alias)
	}
}

func TestParseWherePrecedence(t *testing.T) {
	// AND binds tighter than OR (whose operands sort by template: '(' first).
	q := mustParse(t, `SELECT COUNT(*) FROM s WHERE a = 1 OR b = 2 AND c = 3`)
	want := "((b = 2 AND c = 3) OR a = 1)"
	if got := q.Where.String(); got != want {
		t.Errorf("where = %q, want %q", got, want)
	}
	q2 := mustParse(t, `SELECT COUNT(*) FROM s WHERE (a = 1 OR b = 2) AND c = 3`)
	want2 := "((a = 1 OR b = 2) AND c = 3)"
	if got := q2.Where.String(); got != want2 {
		t.Errorf("where = %q, want %q", got, want2)
	}
}

func TestParseOperatorsAndLiterals(t *testing.T) {
	q := mustParse(t, `SELECT COUNT(*) FROM s WHERE a >= 1.5 AND b <> 'x' AND c < -3
		AND d = TRUE AND e != FALSE AND f <= 10 AND g > 0`)
	s := q.Where.String()
	for _, frag := range []string{"a >= 1.5", "b <> 'x'", "c < -3", "d = true", "f <= 10", "g > 0"} {
		if !strings.Contains(s, frag) {
			t.Errorf("where %q missing %q", s, frag)
		}
	}
}

func TestParseNot(t *testing.T) {
	q := mustParse(t, `SELECT COUNT(*) FROM s WHERE NOT a = 1`)
	if got := q.Where.String(); got != "NOT (a = 1)" {
		t.Errorf("where = %q", got)
	}
}

func TestParseAbsoluteError(t *testing.T) {
	q := mustParse(t, `SELECT SUM(x) FROM s ERROR WITHIN 500 AT CONFIDENCE 99%`)
	if q.Err == nil || q.Err.Relative || q.Err.Bound != 500 || q.Err.Confidence != 0.99 {
		t.Errorf("err = %+v", q.Err)
	}
}

func TestParseErrorDefaults(t *testing.T) {
	q := mustParse(t, `SELECT SUM(x) FROM s ERROR WITHIN 5%`)
	if q.Err.Confidence != 0.95 {
		t.Errorf("default confidence = %g", q.Err.Confidence)
	}
	// Bare confidence number > 1 treated as percent.
	q2 := mustParse(t, `SELECT SUM(x) FROM s ERROR WITHIN 5% AT CONFIDENCE 99`)
	if q2.Err.Confidence != 0.99 {
		t.Errorf("bare confidence = %g", q2.Err.Confidence)
	}
}

func TestParseLimit(t *testing.T) {
	q := mustParse(t, `SELECT COUNT(*) FROM s LIMIT 10`)
	if q.Limit != 10 {
		t.Errorf("limit = %d", q.Limit)
	}
}

func TestParseBoundsEitherOrder(t *testing.T) {
	q := mustParse(t, `SELECT COUNT(*) FROM s WITHIN 5 SECONDS ERROR WITHIN 10%`)
	if q.Time == nil || q.Err == nil {
		t.Error("both bounds should parse in any order")
	}
}

func TestQueryString(t *testing.T) {
	src := `SELECT COUNT(*), AVG(time) FROM s WHERE city = 'NY' GROUP BY os ERROR WITHIN 10% AT CONFIDENCE 95% LIMIT 5`
	q := mustParse(t, src)
	// Round-trip: rendering re-parses to an identical query.
	q2 := mustParse(t, q.String())
	if q2.String() != q.String() {
		t.Errorf("round trip: %q vs %q", q.String(), q2.String())
	}
}

func TestQueryColumns(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "os", Kind: types.KindString},
		types.Column{Name: "time", Kind: types.KindFloat},
	)
	q := mustParse(t, `SELECT COUNT(*) FROM s WHERE city = 'NY' GROUP BY os`)
	cs, err := q.Columns(schema)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Key() != "city,os" {
		t.Errorf("columns = %q", cs.Key())
	}
	// Unknown column in WHERE surfaces on Columns().
	q2 := mustParse(t, `SELECT COUNT(*) FROM s WHERE bogus = 1`)
	if _, err := q2.Columns(schema); err == nil {
		t.Error("unknown column should error")
	}
}

func TestResolveErrors(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "a", Kind: types.KindInt})
	for _, src := range []string{
		`SELECT COUNT(*) FROM s WHERE z = 1`,
		`SELECT COUNT(*) FROM s WHERE z = 1 AND a = 2`,
		`SELECT COUNT(*) FROM s WHERE a = 2 OR z = 1`,
		`SELECT COUNT(*) FROM s WHERE NOT z = 1`,
	} {
		q := mustParse(t, src)
		if _, err := q.Where.Resolve(schema); err == nil {
			t.Errorf("%q: resolve should fail", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT FROM s`,
		`SELECT COUNT(* FROM s`,
		`SELECT BOGUS(x) FROM s`,
		`SELECT COUNT(*)`,
		`SELECT COUNT(*) FROM`,
		`SELECT COUNT(*) FROM s WHERE`,
		`SELECT COUNT(*) FROM s WHERE a`,
		`SELECT COUNT(*) FROM s WHERE a =`,
		`SELECT COUNT(*) FROM s WHERE a = 'unterminated`,
		`SELECT COUNT(*) FROM s GROUP`,
		`SELECT COUNT(*) FROM s GROUP BY`,
		`SELECT COUNT(*) FROM s ERROR`,
		`SELECT COUNT(*) FROM s ERROR WITHIN`,
		`SELECT COUNT(*) FROM s WITHIN 5`,
		`SELECT COUNT(*) FROM s WITHIN 5 SECONDS WITHIN 6 SECONDS`,
		`SELECT COUNT(*) FROM s ERROR WITHIN 5% ERROR WITHIN 6%`,
		`SELECT COUNT(*) FROM s trailing garbage`,
		`SELECT QUANTILE(x, 1.5) FROM s`,
		`SELECT QUANTILE(x) FROM s`,
		`SELECT COUNT(*) FROM s WHERE a = 1 AND`,
		`SELECT COUNT(*) FROM s WHERE (a = 1`,
		`SELECT COUNT(*) FROM s WHERE a @ 1`,
		`SELECT COUNT(*) FROM s WHERE 1.2.3 = a`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestLexerFeatures(t *testing.T) {
	// Comments, escaped quotes, double-quoted strings, semicolons.
	q := mustParse(t, `
		-- leading comment
		SELECT COUNT(*) FROM s
		WHERE a = 'it''s' AND b = "dq" -- trailing comment
		;`)
	s := q.Where.String()
	if !strings.Contains(s, "'it''s'") {
		t.Errorf("escaped quote lost: %q", s)
	}
	if !strings.Contains(s, "dq") {
		t.Errorf("double-quoted string lost: %q", s)
	}
}

func TestResolvedPredicateEval(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "genre", Kind: types.KindString},
		types.Column{Name: "n", Kind: types.KindInt},
	)
	q := mustParse(t, `SELECT COUNT(*) FROM s WHERE genre = 'western' AND n >= 3`)
	pred, err := q.Where.Resolve(schema)
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Eval(types.Row{types.Str("western"), types.Int(5)}) {
		t.Error("should match")
	}
	if pred.Eval(types.Row{types.Str("drama"), types.Int(5)}) {
		t.Error("should not match genre")
	}
	if pred.Eval(types.Row{types.Str("western"), types.Int(2)}) {
		t.Error("should not match n")
	}
}

func BenchmarkParse(b *testing.B) {
	src := `SELECT COUNT(*), AVG(time) FROM sessions WHERE city = 'NY' AND os = 'Win7' GROUP BY genre ERROR WITHIN 10% AT CONFIDENCE 95%`
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// Columns returns the query-template column set: the union of columns in
// WHERE and GROUP BY clauses (§3.2.1's φ of the template).
func (q *Query) Columns(schema *types.Schema) (types.ColumnSet, error) {
	cs := types.NewColumnSet(q.GroupBy...)
	if q.Where != nil {
		p, err := q.Where.Resolve(schema)
		if err != nil {
			return cs, err
		}
		cs = cs.Union(p.Columns())
	}
	return cs, nil
}

// TestBoundsOutsideTheirDomain: an error bound ≤ 0, a confidence outside
// (0, 1) — of an ERROR clause or a RELATIVE ERROR projection — a time
// bound ≤ 0 and a LIMIT that is not a positive integer are parse errors,
// not bounds the engine quietly ignores, clamps or truncates. The
// domain's edges just inside still parse.
func TestBoundsOutsideTheirDomain(t *testing.T) {
	const sel = `SELECT AVG(x) FROM t `
	for _, bad := range []string{
		`ERROR WITHIN 0%`,
		`ERROR WITHIN -5%`,
		`ERROR WITHIN 0`,
		`ERROR WITHIN -0.5`,
		`ERROR WITHIN 10% AT CONFIDENCE 0%`,
		`ERROR WITHIN 10% AT CONFIDENCE 0`,
		`ERROR WITHIN 10% AT CONFIDENCE -95%`,
		`ERROR WITHIN 10% AT CONFIDENCE 100%`,
		`ERROR WITHIN 10% AT CONFIDENCE 1`,
		`ERROR WITHIN 10% AT CONFIDENCE 150%`,
		`ERROR WITHIN 10% AT CONFIDENCE 150`,
		`WITHIN 0 SECONDS`,
		`WITHIN -1 SECONDS`,
		`LIMIT 0`,
		`LIMIT -1`,
		`LIMIT 2.5`,
		`LIMIT 99999999999999999999`,
	} {
		if q, err := Parse(sel + bad); err == nil {
			t.Errorf("%q parsed, as %s", bad, q)
		}
	}
	for _, bad := range []string{`0%`, `0`, `-5%`, `100%`, `150%`, `150`} {
		src := `SELECT COUNT(*), RELATIVE ERROR AT ` + bad + ` CONFIDENCE FROM t`
		if q, err := Parse(src); err == nil {
			t.Errorf("%q parsed, as %s", src, q)
		}
	}
	for _, good := range []string{
		`ERROR WITHIN 0.0001%`,
		`ERROR WITHIN 0.5`,
		`ERROR WITHIN 250%`,
		`ERROR WITHIN 10% AT CONFIDENCE 0.01%`,
		`ERROR WITHIN 10% AT CONFIDENCE 99.99%`,
		`ERROR WITHIN 10% AT CONFIDENCE 0.9`,
		`WITHIN 0.001 SECONDS`,
		`LIMIT 1`,
		`LIMIT 3.0`,
	} {
		if _, err := Parse(sel + good); err != nil {
			t.Errorf("%q: %v", good, err)
		}
	}
}
