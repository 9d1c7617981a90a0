package sqlparser

import (
	"math"
	"reflect"
	"testing"

	"blinkdb/internal/types"
)

// FuzzNormalize is the template-canonicalization fuzz harness. For every
// input that parses, it pins the three invariants the plan and result
// caches rest on:
//
//  1. Normalize never panics (any parsed query has a template).
//  2. Literal insensitivity: mutating every lifted literal (comparison
//     values, bounds, confidences, LIMIT) yields the SAME template key
//     with the same parameter arity — different constants, one template.
//  3. Round trip: re-binding the lifted parameter vector into the
//     mutated tree restores the original query exactly (DeepEqual), so
//     (key, params) is a lossless encoding of everything that affects
//     execution — the property that makes replaying a cached result for
//     an equal (key, params) pair sound.
//  4. SQL round trip: q.String() parses back to the same key and
//     parameters — what a warm boot replays from the warmup file.
//
// The seed corpus lives in testdata/fuzz/FuzzNormalize and runs as part
// of the ordinary test suite (non-fuzz mode); `go test -fuzz=FuzzNormalize
// ./internal/sqlparser` explores from those seeds.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{
		`SELECT COUNT(*) FROM sessions`,
		`SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 10% AT CONFIDENCE 95%`,
		`SELECT SUM(x), QUANTILE(x, 0.9) FROM t WHERE (a > 1 OR b <= -2.5) AND NOT (c <> 'v') GROUP BY g WITHIN 5 SECONDS`,
		`SELECT COUNT(*), RELATIVE ERROR AT 99% CONFIDENCE FROM t WHERE ok = TRUE LIMIT 3`,
		`SELECT MEDIAN(y) AS m FROM t JOIN d ON k = id WHERE d.name = 'x' ERROR WITHIN 0.5 AT CONFIDENCE 90% WITHIN 2 SECONDS`,
		`SELECT AVG(v) FROM t WHERE a = 1 AND a = 1.0 AND a = '1'`,
		`SELECT COUNT(*) FROM t WHERE`,
		`not sql at all`,
		`SELECT AVG(v) FROM t WHERE name = 'O''Brien'`,
		`SELECT AVG(v) FROM t WHERE a < 3.0`,
		`SELECT COUNT(*) FROM t WHERE z = 1 OR (b = 2 OR a = 'x') OR NOT (c = 1 OR a = 2.5) OR a = 1`,
		// Bounds outside their domain, which Parse rejects.
		`SELECT AVG(v) FROM t ERROR WITHIN 0%`,
		`SELECT AVG(v) FROM t ERROR WITHIN -5%`,
		`SELECT AVG(v) FROM t ERROR WITHIN 10% AT CONFIDENCE 0%`,
		`SELECT AVG(v) FROM t ERROR WITHIN 10% AT CONFIDENCE 150%`,
		`SELECT COUNT(*), RELATIVE ERROR AT 0% CONFIDENCE FROM t`,
		`SELECT COUNT(*), RELATIVE ERROR AT 100% CONFIDENCE FROM t`,
		`SELECT AVG(v) FROM t WITHIN -1 SECONDS`,
		`SELECT AVG(v) FROM t LIMIT 0`,
		`SELECT AVG(v) FROM t LIMIT -1`,
		`SELECT AVG(v) FROM t LIMIT 2.5`,
		`SELECT AVG(v) FROM t LIMIT 99999999999999999999`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return // Normalize's domain is parsed queries
		}
		key, params := Normalize(q) // invariant 1: must not panic

		sql := q.String()
		q4, err := Parse(sql)
		if err != nil {
			t.Fatalf("String does not parse back\nsrc %q\nsql %q\nerr %v", src, sql, err)
		}
		if key4, params4 := Normalize(q4); key4 != key || !paramsBitsEqual(params4, params) {
			t.Fatalf("String changed the template or parameters\nsrc  %q\nsql  %q\nwant %q %v\ngot  %q %v",
				src, sql, key, params, key4, params4)
		}

		q2, err := Parse(src) // independent tree to mutate
		if err != nil {
			t.Fatalf("parse is not deterministic: %q reparsed with error %v", src, err)
		}
		mutateLiterals(q2)
		key2, params2 := Normalize(q2)
		if key2 != key {
			t.Fatalf("mutated literals changed the template key\nsrc  %q\nwas  %q\nnow  %q", src, key, key2)
		}
		if len(params2) != len(params) {
			t.Fatalf("mutated literals changed the parameter arity: %d -> %d (src %q)",
				len(params), len(params2), src)
		}

		rest := rebind(t, q2, params)
		if rest != 0 {
			t.Fatalf("rebind left %d of %d params unconsumed (src %q)", rest, len(params), src)
		}
		key3, params3 := Normalize(q2)
		if key3 != key {
			t.Fatalf("rebound query changed the template key\nsrc %q\nwas %q\nnow %q", src, key, key3)
		}
		if !paramsBitsEqual(params3, params) {
			t.Fatalf("rebound parameter vector diverged\nsrc  %q\nwant %v\ngot  %v", src, params, params3)
		}
		// The rebound tree must BE the original query again — equal Query
		// values compile to equal plans, so (key, params) round-trips to
		// an equivalent plan. reflect.DeepEqual compares floats with ==,
		// which a NaN literal would break spuriously; no literal syntax
		// produces NaN, but guard anyway since fuzzing owns the input.
		if !paramsHaveNaN(params) && !reflect.DeepEqual(q, q2) {
			t.Fatalf("rebinding did not round-trip the query\nsrc  %q\nwant %#v\ngot  %#v", src, q, q2)
		}
	})
}

// mutateLiterals changes every value Normalize lifts into the parameter
// vector — and nothing else — walking the query in template order.
func mutateLiterals(q *Query) {
	if q.ReportError {
		q.ReportConfidence = q.ReportConfidence/2 + 0.17
	}
	if q.Where != nil {
		mutateExpr(q.Where)
	}
	if q.Err != nil {
		q.Err.Bound += 0.5
		q.Err.Confidence = q.Err.Confidence/3 + 0.01
	}
	if q.Time != nil {
		q.Time.Seconds += 1.25
	}
	if q.Limit > 0 {
		q.Limit += 3 // stays positive: presence of LIMIT is structural
	}
}

func mutateExpr(e Expr) {
	switch t := e.(type) {
	case *CmpExpr:
		t.Val = mutateValue(t.Val)
	case *BinExpr:
		mutateExpr(t.L)
		mutateExpr(t.R)
	case *NotExpr:
		mutateExpr(t.Kid)
	}
}

// mutateValue returns a different literal; it may even change the KIND —
// the comparison placeholder '?' elides both, so the key must not move.
func mutateValue(v types.Value) types.Value {
	switch v.Kind {
	case types.KindInt:
		return types.Int(v.I + 1)
	case types.KindFloat:
		return types.Float(v.F/2 + 1)
	case types.KindString:
		return types.Str(v.S + "~")
	case types.KindBool:
		return types.Bool(v.I == 0)
	default:
		return types.Str("was-null")
	}
}

// rebind writes the parameter vector back into the query, mirroring
// Normalize's traversal order exactly, and returns how many params were
// left over (0 on a clean round trip).
func rebind(t *testing.T, q *Query, params []types.Value) int {
	t.Helper()
	pop := func() types.Value {
		if len(params) == 0 {
			t.Fatal("rebind ran out of params")
		}
		v := params[0]
		params = params[1:]
		return v
	}
	if q.ReportError {
		q.ReportConfidence = pop().F
	}
	if q.Where != nil {
		rebindExpr(q.Where, &params)
	}
	if q.Err != nil {
		q.Err.Bound = pop().F
		q.Err.Confidence = pop().F
	}
	if q.Time != nil {
		q.Time.Seconds = pop().F
	}
	if q.Limit > 0 {
		q.Limit = int(pop().I)
	}
	return len(params)
}

func rebindExpr(e Expr, params *[]types.Value) {
	switch t := e.(type) {
	case *CmpExpr:
		t.Val = (*params)[0]
		*params = (*params)[1:]
	case *BinExpr:
		rebindExpr(t.L, params)
		rebindExpr(t.R, params)
	case *NotExpr:
		rebindExpr(t.Kid, params)
	}
}

// paramsBitsEqual compares vectors field-by-field with floats by bit
// pattern, so a NaN round trip (bits preserved) still counts as equal.
func paramsBitsEqual(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].I != b[i].I || a[i].S != b[i].S ||
			math.Float64bits(a[i].F) != math.Float64bits(b[i].F) {
			return false
		}
	}
	return true
}

func paramsHaveNaN(params []types.Value) bool {
	for _, v := range params {
		if v.Kind == types.KindFloat && math.IsNaN(v.F) {
			return true
		}
	}
	return false
}
