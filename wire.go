package blinkdb

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"blinkdb/internal/elp"
)

// AppendFrame appends u and its newline as one frame of blinkdb-server's
// wire format: a streamed refinement, the single non-streaming answer (a
// lone final frame), or — u.Result nil — a failure delivered in-band.
// elapsedMS is the serving layer's clock; result is omitted without a
// Result, error without a message. The bytes are exactly what
// encoding/json emits (HTML escaping on) for the structs internal/server's
// wire_test.go keeps as the specification; a served form's "result" is
// the bytes its cache entry holds.
func (u *StreamUpdate) AppendFrame(dst []byte, elapsedMS float64, errMsg string) []byte {
	dst = appendInt(dst, `{"seq":`, int64(u.Seq))
	dst = appendInt(dst, `,"level":`, int64(u.Level))
	dst = strconv.AppendBool(append(dst, `,"final":`...), u.Final)
	dst = appendFloat(dst, `,"elapsed_ms":`, elapsedMS)
	if u.wire != nil {
		dst = append(append(dst, `,"result":`...), u.wire...)
	} else if u.Result != nil {
		dst = u.Result.appendJSON(append(dst, `,"result":`...))
	}
	if errMsg != "" {
		dst = appendString(dst, `,"error":`, errMsg)
	}
	return append(dst, '}', '\n')
}

// appendJSON appends the result as a frame's "result" object. A cell's
// rel_err is -1 where RelErr is NaN or ±Inf (JSON has neither: -1 marks
// an undefined relative error); empty rows and cells are null, empty
// names and cache markers are left out, Trace and Level are not in it.
func (r *Result) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"rows":`...)
	rows := len(dst)
	for _, row := range r.Rows {
		dst = appendString(dst, `,{"group":`, row.Group)
		dst = append(dst, `,"cells":`...)
		cells := len(dst)
		for _, c := range row.Cells {
			dst = append(dst, ',', '{')
			if c.Name != "" {
				dst = append(appendString(dst, `"name":`, c.Name), ',')
			}
			dst = appendFloat(dst, `"value":`, c.Value)
			dst = appendFloat(dst, `,"bound":`, c.Bound)
			if math.IsInf(c.RelErr, 0) || math.IsNaN(c.RelErr) {
				dst = append(dst, `,"rel_err":-1`...)
			} else {
				dst = appendFloat(dst, `,"rel_err":`, c.RelErr)
			}
			dst = strconv.AppendBool(append(dst, `,"exact":`...), c.Exact)
			dst = append(appendInt(dst, `,"rows":`, c.Rows), '}')
		}
		dst = append(closeArray(dst, cells, len(row.Cells)), '}')
	}
	dst = closeArray(dst, rows, len(r.Rows))
	dst = appendFloat(dst, `,"confidence":`, r.Confidence)
	dst = appendFloat(dst, `,"sim_latency_seconds":`, r.SimLatencySeconds)
	dst = appendString(dst, `,"sample":`, r.SampleDescription)
	dst = appendString(dst, `,"explanation":`, r.Explanation)
	if r.PlanCache != "" {
		dst = appendString(dst, `,"plan_cache":`, r.PlanCache)
	}
	if r.ResultCache != "" {
		dst = appendString(dst, `,"result_cache":`, r.ResultCache)
	}
	dst = appendInt(dst, `,"rows_scanned":`, r.RowsScanned)
	dst = appendInt(dst, `,"rows_matched":`, r.RowsMatched)
	return append(appendFloat(dst, `,"predicted_bound":`, r.PredictedBound), '}')
}

// closeArray ends an array of n elements appended from dst[at] on, each
// behind a comma: the first becomes the bracket. No elements are null.
func closeArray(dst []byte, at, n int) []byte {
	if n == 0 {
		return append(dst, "null"...)
	}
	dst[at] = '['
	return append(dst, ']')
}

// served is the immutable form of a result-cache entry's answer: the
// Result a hit returns and its wire encoding (see elp.Response.Served).
type served struct {
	res  Result
	wire []byte
}

// result turns the run's final response into the statement's Result. A
// result-cache hit takes the entry's served form — a copy for a private
// statement, else the form itself with its encoding — unless it is
// EXPLAIN ANALYZE, whose Result carries its own trace, or names its
// columns differently: aliases are not part of the cache key, so the form
// has those of the hit that built it, and any other is built for itself.
func (st Statement) result(resp *elp.Response) (*Result, []byte) {
	if resp.Shared() {
		msp := st.tr.Root().Child("materialize")
		defer msp.End()
		if sv := st.served(resp); sv != nil {
			if st.private {
				return sv.res.clone(), nil
			}
			return &sv.res, sv.wire
		}
	}
	return buildResult(st.q, resp), nil
}

func (st Statement) served(resp *elp.Response) *served {
	if st.q.Analyze {
		return nil
	}
	sv := resp.Served(func() any {
		sv := &served{res: *buildResult(st.q, resp)}
		sv.wire = sv.res.appendJSON(nil)
		return sv
	}).(*served)
	if len(sv.res.Rows) > 0 {
		for i, c := range sv.res.Rows[0].Cells {
			if i < len(st.q.Aggs) && c.Name != st.q.Aggs[i].Alias {
				return nil
			}
		}
	}
	return sv
}

// clone returns a copy of r that shares no memory with it, in two
// allocations beside the Result itself however many rows there are.
func (r *Result) clone() *Result {
	cp := *r
	cp.Rows = slices.Clone(r.Rows)
	var cells []Cell // every row has a cell per aggregate
	if len(r.Rows) > 0 {
		cells = make([]Cell, 0, len(r.Rows)*len(r.Rows[0].Cells))
	}
	for i, row := range r.Rows {
		if cells = append(cells, row.Cells...); row.Cells != nil {
			cp.Rows[i].Cells = cells[len(cells)-len(row.Cells) : len(cells) : len(cells)]
		}
	}
	return &cp
}

const hex = "0123456789abcdef"

// appendInt appends key (whatever precedes the value: `,"rows":`) and n.
func appendInt(dst []byte, key string, n int64) []byte {
	return strconv.AppendInt(append(dst, key...), n, 10)
}

// appendFloat appends key and f in encoding/json's format: shortest
// round-tripping digits, an exponent below 1e-6 and from 1e21, its leading
// zero trimmed. NaN and ±Inf, which encoding/json refuses, become null.
func appendFloat(dst []byte, key string, f float64) []byte {
	dst = append(dst, key...)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 → e-9
		dst = dst[:n-1]
	}
	return dst
}

// appendString appends key and s as encoding/json quotes a string: quote,
// backslash and control bytes escaped, <, > and & as \u00XX, U+2028 and
// U+2029 escaped, each byte of invalid UTF-8 replaced by \ufffd.
func appendString(dst []byte, key, s string) []byte {
	dst = append(append(dst, key...), '"')
	start := 0
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		i += size
		if r >= ' ' && r != '"' && r != '\\' && r != '<' && r != '>' && r != '&' &&
			r != '\u2028' && r != '\u2029' && (r != utf8.RuneError || size > 1) {
			continue
		}
		dst = append(dst, s[start:i-size]...)
		start = i
		switch e := strings.IndexRune("\"\\\b\f\n\r\t", r); {
		case e >= 0:
			dst = append(dst, '\\', `"\bfnrt`[e])
		case r == utf8.RuneError:
			dst = append(dst, `\ufffd`...)
		default:
			dst = append(dst, '\\', 'u', hex[r>>12], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
		}
	}
	return append(append(dst, s[start:]...), '"')
}
