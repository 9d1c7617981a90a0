package sqlparser

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"blinkdb/internal/stats"
	"blinkdb/internal/types"
)

// Parse parses one BlinkDB query.
//
// Grammar (case-insensitive keywords):
//
//	query    := [EXPLAIN ANALYZE]
//	            SELECT aggs [, RELATIVE ERROR AT num% CONFIDENCE]
//	            FROM ident {JOIN ident ON ident = ident}
//	            [WHERE expr] [GROUP BY ident {, ident}]
//	            [ERROR WITHIN num[%] AT CONFIDENCE num[%]]
//	            [WITHIN num SECONDS] [LIMIT int] [;]
//	aggs     := agg {, agg}
//	agg      := COUNT ( * | ident ) | SUM|AVG|MEAN ( ident )
//	          | MEDIAN ( ident ) | QUANTILE|PERCENTILE ( ident , num )
//	expr     := orExpr
//	orExpr   := andExpr {OR andExpr}   (operands in template order)
//	andExpr  := unary {AND unary}
//	unary    := NOT unary | ( expr ) | cmp
//	cmp      := ident op literal
//	op       := = | <> | != | < | <= | > | >=
//	literal  := number | string | TRUE | FALSE
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if err := q.CheckBounds(); err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("parse error near %s: %s", p.cur(), fmt.Sprintf(format, args...))
}

// acceptKw consumes the (upper-case, ASCII) keyword if present, in any
// case. Equal lengths rule out the runes that fold onto ASCII letters.
func (p *parser) acceptKw(kw string) bool {
	if t := &p.toks[p.i]; t.kind == tokIdent && len(t.raw) == len(kw) && strings.EqualFold(t.raw, kw) {
		p.i++
		return true
	}
	return false
}

// expectKw requires the keyword.
func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

// acceptSym consumes the symbol if present.
func (p *parser) acceptSym(s string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

func (p *parser) expectIdent() (token, error) {
	if p.cur().kind != tokIdent {
		return token{}, p.errf("expected identifier")
	}
	return p.next(), nil
}

func (p *parser) expectNumber() (float64, error) {
	if p.cur().kind != tokNumber {
		return 0, p.errf("expected number")
	}
	t := p.next()
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, p.errf("bad number %q", t.raw)
	}
	return v, nil
}

// percentage parses "num %" or "num" and returns the value as a fraction
// when a % sign is present (95% → 0.95) or verbatim when absent and ≤ 1.
// Bare numbers > 1 are treated as percentages for ergonomics (CONFIDENCE 95).
func (p *parser) percentage() (float64, bool, error) {
	v, err := p.expectNumber()
	if err != nil {
		return 0, false, err
	}
	if p.acceptSym("%") {
		return v / 100, true, nil
	}
	return v, false, nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{ReportConfidence: DefaultConfidence}
	if p.acceptKw("EXPLAIN") {
		if err := p.expectKw("ANALYZE"); err != nil {
			return nil, err
		}
		q.Analyze = true
	}
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	for {
		// "RELATIVE ERROR AT c% CONFIDENCE" pseudo-projection.
		if p.acceptKw("RELATIVE") {
			if err := p.expectKw("ERROR"); err != nil {
				return nil, err
			}
			if err := p.expectKw("AT"); err != nil {
				return nil, err
			}
			v, pct, err := p.percentage()
			if err != nil {
				return nil, err
			}
			if !pct && v > 1 {
				v /= 100
			}
			if err := p.expectKw("CONFIDENCE"); err != nil {
				return nil, err
			}
			q.ReportError = true
			q.ReportConfidence = v
		} else {
			agg, err := p.parseAgg()
			if err != nil {
				return nil, err
			}
			q.Aggs = append(q.Aggs, agg)
		}
		if !p.acceptSym(",") {
			break
		}
	}
	if len(q.Aggs) == 0 {
		return nil, p.errf("query must contain at least one aggregate")
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	q.Table = tbl.raw

	for p.acceptKw("JOIN") {
		jt, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		left, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		right, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		q.Joins = append(q.Joins, JoinClause{
			Table:    jt.raw,
			LeftCol:  lower(left.raw),
			RightCol: lower(right.raw),
		})
	}

	if p.acceptKw("WHERE") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, c.raw)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	// Bound clauses, in either order.
	for {
		switch {
		case p.acceptKw("ERROR"):
			if err := p.expectKw("WITHIN"); err != nil {
				return nil, err
			}
			bound, rel, err := p.percentage()
			if err != nil {
				return nil, err
			}
			eb := &ErrorBound{Relative: rel, Bound: bound, Confidence: DefaultConfidence}
			if p.acceptKw("AT") {
				if err := p.expectKw("CONFIDENCE"); err != nil {
					return nil, err
				}
				c, pct, err := p.percentage()
				if err != nil {
					return nil, err
				}
				if !pct && c > 1 {
					c /= 100
				}
				eb.Confidence = c
			}
			if q.Err != nil {
				return nil, p.errf("duplicate ERROR clause")
			}
			q.Err = eb
		case p.acceptKw("WITHIN"):
			secs, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			if !p.acceptKw("SECONDS") && !p.acceptKw("SECOND") {
				return nil, p.errf("expected SECONDS")
			}
			if q.Time != nil {
				return nil, p.errf("duplicate WITHIN clause")
			}
			q.Time = &TimeBound{Seconds: secs}
		case p.acceptKw("LIMIT"):
			n, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			if n < 1 || n > math.MaxInt32 || n != math.Trunc(n) {
				return nil, p.errf("LIMIT %s is not a positive integer", number(n))
			}
			q.Limit = int(n)
		default:
			goto done
		}
	}
done:
	p.acceptSym(";")
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing input")
	}
	return q, nil
}

func (p *parser) parseAgg() (AggSpec, error) {
	t, err := p.expectIdent()
	if err != nil {
		return AggSpec{}, err
	}
	var spec AggSpec
	name := strings.ToUpper(t.raw) // no copy when already upper-case
	switch name {
	case "COUNT":
		spec.Kind = stats.AggCount
	case "SUM":
		spec.Kind = stats.AggSum
	case "AVG", "MEAN":
		spec.Kind = stats.AggAvg
	case "MEDIAN":
		spec.Kind = stats.AggQuantile
		spec.P = 0.5
	case "QUANTILE", "PERCENTILE":
		spec.Kind = stats.AggQuantile
	default:
		return spec, p.errf("unknown aggregate %s", t.raw)
	}
	if err := p.expectSym("("); err != nil {
		return spec, err
	}
	if name == "COUNT" && p.acceptSym("*") {
		// COUNT(*): no argument column.
	} else {
		col, err := p.expectIdent()
		if err != nil {
			return spec, err
		}
		spec.Col = lower(col.raw)
	}
	if spec.Kind == stats.AggQuantile && name != "MEDIAN" {
		if err := p.expectSym(","); err != nil {
			return spec, err
		}
		v, err := p.expectNumber()
		if err != nil {
			return spec, err
		}
		if name == "PERCENTILE" && v > 1 {
			v /= 100
		}
		if v <= 0 || v >= 1 {
			return spec, p.errf("quantile level must be in (0,1)")
		}
		spec.P = v
	}
	if err := p.expectSym(")"); err != nil {
		return spec, err
	}
	spec.Alias = spec.String()
	if p.acceptKw("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return spec, err
		}
		spec.Alias = a.raw
	}
	return spec, nil
}

// parseOr parses an OR chain in one canonical order, so that A OR B and
// B OR A are one query — one template, one family choice per disjunct, one
// answer: its operands (an OR in parentheses flattened into the chain, an
// AND or NOT kept whole) stable-sorted by their template rendering
// (writeExprTemplate) and rebuilt left-associative.
func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	if !p.acceptKw("OR") {
		return l, nil
	}
	ops := orOperands(nil, l)
	for {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		ops = orOperands(ops, r)
		if !p.acceptKw("OR") {
			break
		}
	}
	slices.SortStableFunc(ops, func(a, b Expr) int { return strings.Compare(template(a), template(b)) })
	l = ops[0]
	for _, r := range ops[1:] {
		l = &BinExpr{And: false, L: l, R: r}
	}
	return l, nil
}

// orOperands appends e's operands to dst: e's own when it is an OR, else e.
func orOperands(dst []Expr, e Expr) []Expr {
	if or, ok := e.(*BinExpr); ok && !or.And {
		return orOperands(orOperands(dst, or.L), or.R)
	}
	return append(dst, e)
}

// template renders e's template: its shape with every literal a '?'.
func template(e Expr) string {
	var b strings.Builder
	writeExprTemplate(&b, e, nil)
	return b.String()
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{And: true, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptKw("NOT") {
		k, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &NotExpr{Kid: k}, nil
	}
	if p.acceptSym("(") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	col, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokSymbol {
		return nil, p.errf("expected comparison operator")
	}
	var op types.CmpOp
	switch p.next().text {
	case "=":
		op = types.CmpEq
	case "<>", "!=":
		op = types.CmpNe
	case "<":
		op = types.CmpLt
	case "<=":
		op = types.CmpLe
	case ">":
		op = types.CmpGt
	case ">=":
		op = types.CmpGe
	default:
		return nil, p.errf("expected comparison operator")
	}
	val, err := p.parseLiteral()
	if err != nil {
		return nil, err
	}
	return &CmpExpr{Col: lower(col.raw), Op: op, Val: val}, nil
}

func (p *parser) parseLiteral() (types.Value, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.i++
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return types.Null(), p.errf("bad number")
			}
			return types.Float(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return types.Null(), p.errf("bad integer")
		}
		return types.Int(n), nil
	case tokString:
		p.i++
		return types.Str(t.text), nil
	case tokIdent:
		switch {
		case p.acceptKw("TRUE"):
			return types.Bool(true), nil
		case p.acceptKw("FALSE"):
			return types.Bool(false), nil
		case p.acceptKw("NULL"):
			return types.Null(), nil
		}
	}
	return types.Null(), p.errf("expected literal")
}
