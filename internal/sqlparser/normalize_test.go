package sqlparser

import (
	"reflect"
	"testing"

	"blinkdb/internal/types"
)

// TestNormalizeSameTemplate pins the core property: queries differing
// only in constants (and aliases) share a key, and the lifted parameter
// vectors carry the constants in traversal order.
func TestNormalizeSameTemplate(t *testing.T) {
	a := mustParse(t, `SELECT AVG(time) AS x FROM sessions WHERE city = 'NY' AND code < 10 GROUP BY os ERROR WITHIN 10% AT CONFIDENCE 95% LIMIT 5`)
	b := mustParse(t, `SELECT AVG(time) AS y FROM Sessions WHERE city = 'SF' AND code < 99 GROUP BY OS ERROR WITHIN 5% AT CONFIDENCE 99% LIMIT 5`)
	ka, pa := Normalize(a)
	kb, pb := Normalize(b)
	if ka != kb {
		t.Fatalf("same template produced different keys:\n%q\n%q", ka, kb)
	}
	wantA := []types.Value{types.Str("NY"), types.Int(10), types.Float(0.10), types.Float(0.95), types.Int(5)}
	if !reflect.DeepEqual(pa, wantA) {
		t.Errorf("params(a) = %v, want %v", pa, wantA)
	}
	if ParamsEqual(pa, pb) {
		t.Error("different constants must yield unequal parameter vectors")
	}
	if !ParamsEqual(pa, append([]types.Value(nil), pa...)) {
		t.Error("identical parameter vectors must compare equal")
	}
}

// TestNormalizeDistinguishesShapes: structurally different queries must
// not collide, even when a naive rendering would look similar.
func TestNormalizeDistinguishesShapes(t *testing.T) {
	qs := []string{
		`SELECT COUNT(*) FROM t WHERE a = 1`,
		`SELECT COUNT(*) FROM t WHERE a = 1.0`, // Float literal: same key, different param kind
		`SELECT COUNT(*) FROM t WHERE a < 1`,
		`SELECT COUNT(*) FROM t WHERE a = 1 AND b = 2`,
		`SELECT COUNT(*) FROM t WHERE a = 1 OR b = 2`,
		`SELECT COUNT(*) FROM t WHERE NOT (a = 1)`,
		`SELECT COUNT(*) FROM t WHERE a = 1 GROUP BY b`,
		`SELECT COUNT(*) FROM t WHERE a = 1 ERROR WITHIN 10%`,
		`SELECT COUNT(*) FROM t WHERE a = 1 ERROR WITHIN 10`,
		`SELECT COUNT(*) FROM t WHERE a = 1 WITHIN 2 SECONDS`,
		`SELECT COUNT(*) FROM t WHERE a = 1 LIMIT 3`,
		`SELECT COUNT(a) FROM t WHERE a = 1`,
		`SELECT SUM(a) FROM t WHERE a = 1`,
		`SELECT QUANTILE(a, 0.9) FROM t WHERE a = 1`,
		`SELECT QUANTILE(a, 0.5) FROM t WHERE a = 1`,
		`SELECT COUNT(*) FROM u WHERE a = 1`,
		`SELECT COUNT(*) FROM t JOIN u ON a = b WHERE a = 1`,
		`SELECT COUNT(*), RELATIVE ERROR AT 95% CONFIDENCE FROM t WHERE a = 1`,
	}
	seen := map[string]string{}
	for _, src := range qs {
		key, _ := Normalize(mustParse(t, src))
		if prev, ok := seen[key]; ok {
			// The Int-vs-Float literal pair intentionally shares a key
			// (shape-equal); everything else must be distinct.
			if prev == `SELECT COUNT(*) FROM t WHERE a = 1` && src == `SELECT COUNT(*) FROM t WHERE a = 1.0` {
				continue
			}
			t.Errorf("key collision between %q and %q: %q", prev, src, key)
		}
		seen[key] = src
	}
	// The Int/Float pair collides on key but their params must differ.
	_, pi := Normalize(mustParse(t, `SELECT COUNT(*) FROM t WHERE a = 1`))
	_, pf := Normalize(mustParse(t, `SELECT COUNT(*) FROM t WHERE a = 1.0`))
	if ParamsEqual(pi, pf) {
		t.Error("Int(1) and Float(1) literals must not compare parameter-equal")
	}
}

// TestNormalizeAliasInsensitive: aliases rename output columns only.
func TestNormalizeAliasInsensitive(t *testing.T) {
	a := mustParse(t, `SELECT COUNT(*) AS n FROM t`)
	b := mustParse(t, `SELECT COUNT(*) FROM t`)
	ka, _ := Normalize(a)
	kb, _ := Normalize(b)
	if ka != kb {
		t.Errorf("alias changed the template key: %q vs %q", ka, kb)
	}
}

// TestNormalizeDeterministic: normalizing the same query twice is stable.
func TestNormalizeDeterministic(t *testing.T) {
	src := `SELECT AVG(x), MEDIAN(x) FROM t JOIN d ON k = id WHERE (a = 'v' OR b > 2) AND NOT (c <= 3.5) GROUP BY g, h ERROR WITHIN 0.5 AT CONFIDENCE 90% WITHIN 4 SECONDS LIMIT 7`
	k1, p1 := Normalize(mustParse(t, src))
	k2, p2 := Normalize(mustParse(t, src))
	if k1 != k2 || !ParamsEqual(p1, p2) {
		t.Errorf("normalization not deterministic:\n%q %v\n%q %v", k1, p1, k2, p2)
	}
}

// TestParamsKeyCanonical pins the result-cache key contract: vectors that
// ParamsEqual share a key; vectors differing in any value — including the
// Int(1)-vs-Float(1) kind distinction and distinct float bit patterns —
// key differently; and concatenation cannot forge a collision across
// different vector lengths.
func TestParamsKeyCanonical(t *testing.T) {
	v := func(vs ...types.Value) []types.Value { return vs }
	if ParamsKey(nil) != "" || ParamsKey(v()) != "" {
		t.Error("empty vectors must share the empty key")
	}
	a := v(types.Int(1), types.Str("NY"), types.Float(0.5))
	b := v(types.Int(1), types.Str("NY"), types.Float(0.5))
	if ParamsKey(a) != ParamsKey(b) {
		t.Error("equal vectors keyed differently")
	}
	distinct := [][]types.Value{
		a,
		v(types.Float(1), types.Str("NY"), types.Float(0.5)),             // kind differs
		v(types.Int(1), types.Str("NY"), types.Float(0.25)),              // payload differs
		v(types.Int(1), types.Str("NY")),                                 // shorter
		v(types.Int(1), types.Str("NY"), types.Float(0.5), types.Int(7)), // longer
		v(types.Str("iNY"), types.Float(0.5)),                            // prefix-forgery attempt
		v(types.Bool(true), types.Str("NY"), types.Float(0.5)),
		v(types.Null(), types.Str("NY"), types.Float(0.5)),
	}
	seen := map[string]int{}
	for i, p := range distinct {
		k := ParamsKey(p)
		if j, ok := seen[k]; ok {
			t.Errorf("vectors %d and %d collide on key %q", j, i, k)
		}
		seen[k] = i
	}
	// Separator injection: a string literal may contain the '\x1f'
	// separator byte (the lexer admits any byte inside quotes); without
	// length-prefixing, these two distinct vectors would concatenate to
	// the same key and the result cache would serve one query the other's
	// answer.
	forgeA := v(types.Str("a\x1f3sb"), types.Str("c"))
	forgeB := v(types.Str("a"), types.Str("b\x1f3sc"))
	if ParamsKey(forgeA) == ParamsKey(forgeB) {
		t.Error("separator injection forged a ParamsKey collision")
	}

	// The keys Normalize lifts round through ParamsKey consistently with
	// ParamsEqual on real queries.
	_, pi := Normalize(mustParse(t, `SELECT COUNT(*) FROM t WHERE a = 1`))
	_, pf := Normalize(mustParse(t, `SELECT COUNT(*) FROM t WHERE a = 1.0`))
	if ParamsKey(pi) == ParamsKey(pf) {
		t.Error("Int(1) and Float(1) literals must key differently")
	}
}

// TestOrOperandsCanonical: an OR chain parses in template order — nested
// ORs flattened into it, ANDs and NOTs kept whole, equal templates in the
// order written — so every spelling of one disjunction is one template
// with one parameter vector.
func TestOrOperandsCanonical(t *testing.T) {
	for _, c := range []struct {
		srcs  []string
		where string
	}{
		{[]string{
			`SELECT AVG(x) FROM t WHERE os = 'Win7' OR city = 'Fargo' ERROR WITHIN 5%`,
			`SELECT AVG(x) FROM t WHERE city = 'Fargo' OR os = 'Win7' ERROR WITHIN 5%`,
		}, "(city = 'Fargo' OR os = 'Win7')"},
		{[]string{
			`SELECT COUNT(*) FROM t WHERE c = 3 OR (b = 2 OR a = 1)`,
			`SELECT COUNT(*) FROM t WHERE (a = 1 OR c = 3) OR b = 2`,
			`SELECT COUNT(*) FROM t WHERE b = 2 OR a = 1 OR c = 3`,
		}, "((a = 1 OR b = 2) OR c = 3)"},
		{[]string{
			`SELECT COUNT(*) FROM t WHERE z = 1 OR NOT (y = 2 OR x = 3) OR (w = 4 AND (v = 5 OR u = 6))`,
			`SELECT COUNT(*) FROM t WHERE (w = 4 AND (u = 6 OR v = 5)) OR z = 1 OR NOT (x = 3 OR y = 2)`,
		}, "(((w = 4 AND (u = 6 OR v = 5)) OR NOT ((x = 3 OR y = 2))) OR z = 1)"},
		{[]string{`SELECT COUNT(*) FROM t WHERE n = 36 OR n = 9`}, "(n = 36 OR n = 9)"},
	} {
		key, params := Normalize(mustParse(t, c.srcs[0]))
		for _, src := range c.srcs {
			q := mustParse(t, src)
			if got := q.Where.String(); got != c.where {
				t.Errorf("%s: where = %q, want %q", src, got, c.where)
			}
			if k, ps := Normalize(q); k != key || !ParamsEqual(ps, params) {
				t.Errorf("%s: template %q %v, want %q %v", src, k, ps, key, params)
			}
		}
	}
}
