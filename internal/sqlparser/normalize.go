package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"blinkdb/internal/stats"
	"blinkdb/internal/types"
)

// Normalize canonicalizes a parsed query into its template key and
// parameter vector — the §3.2.1 notion of a query template, made
// operational for plan caching: BlinkDB workloads repeat the same
// templates with different constants, and everything the runtime computes
// from probes (family choice, Error-Latency Profile) is a property of the
// template, not of the constants.
//
// The key captures the query's shape: table, join clauses, aggregate
// operators with their argument columns and quantile levels, the
// predicate tree with every comparison literal replaced by a '?'
// placeholder, the GROUP BY list, and the *kinds* of bounds present
// (relative vs absolute error, time, error reporting, LIMIT). Aggregate
// aliases are excluded — they rename output columns without affecting
// execution. The predicate's syntactic structure is preserved verbatim
// (no conjunct reordering): execution order determines floating-point
// accumulation order, so two keys must collide only when replaying one
// against the other's cached state is bit-reproducible.
//
// The parameter vector lifts, in deterministic traversal order, every
// value the key elides: comparison literals (predicate order), then the
// error bound and its confidence, the time bound, the report confidence
// and the LIMIT count. Two queries with equal keys AND equal parameter
// vectors are the same query up to aliases and answer identically.
func Normalize(q *Query) (key string, params []types.Value) {
	var b strings.Builder
	b.Grow(160) // a dashboard template's key, in one allocation
	params = make([]types.Value, 0, 8)
	b.WriteString("select ")
	for i, a := range q.Aggs {
		if i > 0 {
			b.WriteByte(',')
		}
		writeAggTemplate(&b, a)
	}
	if q.ReportError {
		b.WriteString(",relerr@?")
		params = append(params, types.Float(q.ReportConfidence))
	}
	b.WriteString("|from ")
	b.WriteString(strings.ToLower(q.Table))
	for _, j := range q.Joins {
		fmt.Fprintf(&b, "|join %s on %s=%s",
			strings.ToLower(j.Table), strings.ToLower(j.LeftCol), strings.ToLower(j.RightCol))
	}
	if q.Where != nil {
		b.WriteString("|where ")
		params = writeExprTemplate(&b, q.Where, params)
	}
	if len(q.GroupBy) > 0 {
		b.WriteString("|group ")
		for i, c := range q.GroupBy {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strings.ToLower(c))
		}
	}
	if q.Err != nil {
		if q.Err.Relative {
			b.WriteString("|err rel ?@?")
		} else {
			b.WriteString("|err abs ?@?")
		}
		params = append(params, types.Float(q.Err.Bound), types.Float(q.Err.Confidence))
	}
	if q.Time != nil {
		b.WriteString("|time ?")
		params = append(params, types.Float(q.Time.Seconds))
	}
	if q.Limit > 0 {
		b.WriteString("|limit ?")
		params = append(params, types.Int(int64(q.Limit)))
	}
	return b.String(), params
}

// writeAggTemplate renders one aggregate without its alias. The quantile
// level is structural (it changes the computed statistic, not a constant
// the executor binds), so it stays in the key.
func writeAggTemplate(b *strings.Builder, a AggSpec) {
	switch {
	case a.Kind == stats.AggCount && a.Col == "":
		b.WriteString("count(*)")
	case a.Kind == stats.AggQuantile:
		fmt.Fprintf(b, "quantile(%s,%g)", strings.ToLower(a.Col), a.P)
	default:
		b.WriteString(strings.ToLower(a.Kind.String()))
		b.WriteByte('(')
		b.WriteString(strings.ToLower(a.Col))
		b.WriteByte(')')
	}
}

// writeExprTemplate renders the predicate shape with literals lifted into
// params, preserving the tree structure exactly.
func writeExprTemplate(b *strings.Builder, e Expr, params []types.Value) []types.Value {
	switch t := e.(type) {
	case *CmpExpr:
		b.WriteString(strings.ToLower(t.Col))
		b.WriteString(t.Op.String())
		b.WriteByte('?')
		return append(params, t.Val)
	case *BinExpr:
		b.WriteByte('(')
		params = writeExprTemplate(b, t.L, params)
		if t.And {
			b.WriteString(" and ")
		} else {
			b.WriteString(" or ")
		}
		params = writeExprTemplate(b, t.R, params)
		b.WriteByte(')')
		return params
	case *NotExpr:
		b.WriteString("not(")
		params = writeExprTemplate(b, t.Kid, params)
		b.WriteByte(')')
		return params
	default:
		// Unknown node: render its SQL form so distinct shapes cannot
		// collide on a shared placeholder.
		b.WriteString(e.String())
		return params
	}
}

// ParamsKey renders a parameter vector as a canonical string: the result
// cache appends it to the template key so two queries share a cache slot
// exactly when they share template AND parameters. Each value encodes its
// kind and exact payload (types.Value.Key: floats by bit pattern, so
// Int(1), Float(1) and Float(1.0000000001) all key differently), with an
// unambiguous separator. The encoding is at least as strict as
// ParamsEqual: distinct vectors always key differently, and the float
// edge cases where the two disagree (+0 vs −0 key differently though ==;
// identical NaN bit patterns key equally though != under ==) err on the
// side of an extra cache miss, never a wrong hit.
func ParamsKey(params []types.Value) string {
	if len(params) == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(24 * len(params))
	for _, v := range params {
		// Explicit kind byte: Value.Key alone folds Bool(true) into
		// Int(1) (sound for group keys, where the two compare equal, but
		// ParamsEqual — and hence the result cache — keeps them apart).
		b.WriteByte(byte('0' + v.Kind))
		if v.Kind == types.KindString {
			// Length-prefix string payloads: the lexer admits ANY byte
			// inside a quoted literal, including the '\x1f' separator, so
			// raw concatenation would let one vector forge another
			// ([a\x1f…b, c] vs [a, b\x1f…c]). With the prefix, decoding a
			// key is unambiguous, hence the encoding injective.
			b.WriteString(strconv.Itoa(len(v.S)))
			b.WriteByte(':')
			b.WriteString(v.S)
		} else {
			// Numeric payloads (base-36 ints, 'b'-format floats) never
			// contain the separator.
			b.WriteString(v.Key())
		}
		b.WriteByte('\x1f')
	}
	return b.String()
}

// ParamsEqual reports whether two parameter vectors are identical —
// the condition under which a cached result computed for one query may
// answer the other (given equal template keys). Values compare by kind
// and payload; Int(1) and Float(1) are NOT equal (they can produce
// different group keys and zone-pruning decisions).
func ParamsEqual(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
