package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"blinkdb/internal/stats"
	"blinkdb/internal/types"
)

// AggSpec is one aggregate in the SELECT list.
type AggSpec struct {
	// Kind is the aggregate operator.
	Kind stats.AggKind
	// Col is the argument column; empty for COUNT(*).
	Col string
	// P is the quantile level for QUANTILE/PERCENTILE/MEDIAN.
	P float64
	// Alias is the output column label.
	Alias string
}

// String renders the aggregate in SQL form.
func (a AggSpec) String() string {
	switch {
	case a.Kind == stats.AggCount && a.Col == "":
		return "COUNT(*)"
	case a.Kind == stats.AggQuantile:
		return fmt.Sprintf("QUANTILE(%s, %g)", a.Col, a.P)
	default:
		return fmt.Sprintf("%s(%s)", a.Kind, a.Col)
	}
}

// DefaultConfidence is the CI level of a query that names none.
const DefaultConfidence = 0.95

// ErrorBound is the "ERROR WITHIN x[%] AT CONFIDENCE c%" clause.
type ErrorBound struct {
	// Relative, when true, interprets Bound as a fraction of the answer
	// (the "%": 10% → 0.10); otherwise Bound is absolute.
	Relative bool
	// Bound is the maximum half-width of the confidence interval.
	Bound float64
	// Confidence is the CI level in (0,1), e.g. 0.95.
	Confidence float64
}

// String renders the clause.
func (e ErrorBound) String() string {
	bound := number(e.Bound)
	if e.Relative {
		bound, _ = percent(e.Bound)
	}
	return "ERROR WITHIN " + bound + " AT CONFIDENCE " + confidence(e.Confidence)
}

// TimeBound is the "WITHIN n SECONDS" clause.
type TimeBound struct {
	// Seconds is the maximum response time.
	Seconds float64
}

// String renders the clause.
func (t TimeBound) String() string { return "WITHIN " + number(t.Seconds) + " SECONDS" }

// number renders f as the lexer reads numbers: digits and at most one
// point, never an exponent.
func number(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

// percent renders a fraction as the parser reads it from "x%": x/100.
// Every fraction parsed that way comes back from f*100; ok reports
// whether f does.
func percent(f float64) (s string, ok bool) {
	p := f * 100
	return number(p) + "%", p/100 == f
}

// confidence renders a confidence level. The parser reads "x%" as x/100
// and a bare number as itself when at most 1, so a level no percentage
// reaches came from a bare number and renders as one.
func confidence(f float64) string {
	if s, ok := percent(f); ok || f > 1 {
		return s
	}
	return number(f)
}

// Expr is an unresolved boolean expression (column names not yet bound to
// schema positions).
type Expr interface {
	// Resolve binds column names against a schema, producing an
	// executable predicate.
	Resolve(s *types.Schema) (types.Predicate, error)
	// String renders the expression in SQL-ish syntax.
	String() string
}

// CmpExpr is "col op literal".
type CmpExpr struct {
	Col string
	Op  types.CmpOp
	Val types.Value
}

// Resolve implements Expr.
func (e *CmpExpr) Resolve(s *types.Schema) (types.Predicate, error) {
	i, err := s.MustIndex(e.Col)
	if err != nil {
		return nil, err
	}
	return &types.CmpPred{Col: strings.ToLower(e.Col), ColIdx: i, Op: e.Op, Val: e.Val}, nil
}

// String implements Expr. It renders the literal so that it parses back to
// the same kind and value: quotes doubled inside a string, and a float with
// a point and no exponent (a number without a point parses as an Int).
func (e *CmpExpr) String() string {
	lit := e.Val.String()
	switch e.Val.Kind {
	case types.KindString:
		lit = "'" + strings.ReplaceAll(e.Val.S, "'", "''") + "'"
	case types.KindFloat:
		if lit = number(e.Val.F); !strings.Contains(lit, ".") {
			lit += ".0"
		}
	}
	return e.Col + " " + e.Op.String() + " " + lit
}

// BinExpr is AND/OR over two sub-expressions.
type BinExpr struct {
	And  bool // true = AND, false = OR
	L, R Expr
}

// Resolve implements Expr.
func (e *BinExpr) Resolve(s *types.Schema) (types.Predicate, error) {
	l, err := e.L.Resolve(s)
	if err != nil {
		return nil, err
	}
	r, err := e.R.Resolve(s)
	if err != nil {
		return nil, err
	}
	if e.And {
		return &types.AndPred{Kids: []types.Predicate{l, r}}, nil
	}
	return &types.OrPred{Kids: []types.Predicate{l, r}}, nil
}

// String implements Expr.
func (e *BinExpr) String() string {
	op := " OR "
	if e.And {
		op = " AND "
	}
	return "(" + e.L.String() + op + e.R.String() + ")"
}

// NotExpr negates a sub-expression.
type NotExpr struct{ Kid Expr }

// Resolve implements Expr.
func (e *NotExpr) Resolve(s *types.Schema) (types.Predicate, error) {
	k, err := e.Kid.Resolve(s)
	if err != nil {
		return nil, err
	}
	return &types.NotPred{Kid: k}, nil
}

// String implements Expr.
func (e *NotExpr) String() string { return "NOT (" + e.Kid.String() + ")" }

// JoinClause is one "JOIN dim ON left = right" clause (equi-joins only,
// §2.1: BlinkDB supports k-way joins when stratified samples carry the
// join keys, or when the non-fact operands fit in cluster memory).
type JoinClause struct {
	// Table is the joined (dimension) table.
	Table string
	// LeftCol and RightCol are the equi-join columns; LeftCol refers to
	// the accumulated left side (fact table or earlier joins), RightCol
	// to the joined table. Qualified names ("t.col") are accepted.
	LeftCol, RightCol string
}

// String renders the clause.
func (j JoinClause) String() string {
	return fmt.Sprintf("JOIN %s ON %s = %s", j.Table, j.LeftCol, j.RightCol)
}

// Query is a parsed BlinkDB query.
type Query struct {
	// Aggs is the SELECT aggregate list.
	Aggs []AggSpec
	// ReportError is set by "SELECT ..., RELATIVE ERROR AT c% CONFIDENCE".
	ReportError bool
	// ReportConfidence is the confidence for ReportError (default
	// DefaultConfidence).
	ReportConfidence float64
	// Table is the FROM table name.
	Table string
	// Joins lists JOIN clauses in order.
	Joins []JoinClause
	// Where is the filter, or nil.
	Where Expr
	// GroupBy lists grouping columns.
	GroupBy []string
	// Err is the error bound, or nil.
	Err *ErrorBound
	// Time is the response-time bound, or nil.
	Time *TimeBound
	// Limit caps output rows (0 = unlimited).
	Limit int
	// Analyze is set by the EXPLAIN ANALYZE prefix: execute the query
	// normally AND capture a query-lifecycle span tree for the response.
	// Normalize ignores it, so an analyzed query shares plan- and
	// result-cache state with its plain form — EXPLAIN ANALYZE on a warm
	// template shows the warm path, not an artificial cold one.
	Analyze bool
}

// String renders the query back to SQL.
func (q *Query) String() string {
	var b strings.Builder
	if q.Analyze {
		b.WriteString("EXPLAIN ANALYZE ")
	}
	b.WriteString("SELECT ")
	for i, a := range q.Aggs {
		if i > 0 {
			b.WriteString(", ")
		}
		if a.Kind == stats.AggQuantile {
			// Not a.String(), the default output alias, whose %g level
			// may carry an exponent.
			fmt.Fprintf(&b, "QUANTILE(%s, %s)", a.Col, number(a.P))
		} else {
			b.WriteString(a.String())
		}
	}
	if q.ReportError {
		b.WriteString(", RELATIVE ERROR AT " + confidence(q.ReportConfidence) + " CONFIDENCE")
	}
	b.WriteString(" FROM ")
	b.WriteString(q.Table)
	for _, j := range q.Joins {
		b.WriteString(" ")
		b.WriteString(j.String())
	}
	if q.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(q.Where.String())
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(q.GroupBy, ", "))
	}
	if q.Err != nil {
		b.WriteString(" ")
		b.WriteString(q.Err.String())
	}
	if q.Time != nil {
		b.WriteString(" ")
		b.WriteString(q.Time.String())
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}
