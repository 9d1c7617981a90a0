package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"blinkdb"
	"blinkdb/internal/sqlparser"
)

// The wire format's specification: the structs the server marshalled its
// frames from, by reflection, before StreamUpdate.AppendFrame replaced
// them. The encoders must emit, byte for byte, what encoding/json
// emits for these.

// frame is one streamed refinement (or the single non-streaming answer,
// which is a lone final frame).
type frame struct {
	Seq       int         `json:"seq"`
	Level     int         `json:"level"`
	Final     bool        `json:"final"`
	ElapsedMS float64     `json:"elapsed_ms"`
	Result    *resultJSON `json:"result,omitempty"`
	Error     string      `json:"error,omitempty"`
}

// resultJSON is the wire shape of blinkdb.Result.
type resultJSON struct {
	Rows              []rowJSON `json:"rows"`
	Confidence        float64   `json:"confidence"`
	SimLatencySeconds float64   `json:"sim_latency_seconds"`
	Sample            string    `json:"sample"`
	Explanation       string    `json:"explanation"`
	PlanCache         string    `json:"plan_cache,omitempty"`
	ResultCache       string    `json:"result_cache,omitempty"`
	RowsScanned       int64     `json:"rows_scanned"`
	RowsMatched       int64     `json:"rows_matched"`
	PredictedBound    float64   `json:"predicted_bound"`
}

type rowJSON struct {
	Group string     `json:"group"`
	Cells []cellJSON `json:"cells"`
}

type cellJSON struct {
	Name   string  `json:"name,omitempty"`
	Value  float64 `json:"value"`
	Bound  float64 `json:"bound"`
	RelErr float64 `json:"rel_err"`
	Exact  bool    `json:"exact"`
	Rows   int64   `json:"rows"`
}

func toResultJSON(res *blinkdb.Result) *resultJSON {
	out := &resultJSON{
		Confidence:        res.Confidence,
		SimLatencySeconds: res.SimLatencySeconds,
		Sample:            res.SampleDescription,
		Explanation:       res.Explanation,
		PlanCache:         res.PlanCache,
		ResultCache:       res.ResultCache,
		RowsScanned:       res.RowsScanned,
		RowsMatched:       res.RowsMatched,
		PredictedBound:    res.PredictedBound,
	}
	for _, row := range res.Rows {
		rj := rowJSON{Group: row.Group}
		for _, c := range row.Cells {
			re := c.RelErr
			if math.IsInf(re, 0) || math.IsNaN(re) {
				re = -1 // JSON has no Inf; -1 marks "undefined relative error"
			}
			rj.Cells = append(rj.Cells, cellJSON{
				Name: c.Name, Value: c.Value, Bound: c.Bound,
				RelErr: re, Exact: c.Exact, Rows: c.Rows,
			})
		}
		out.Rows = append(out.Rows, rj)
	}
	return out
}

// specFrame is the reflection encoding of one frame, as the handlers
// produced it: json.NewEncoder(w).Encode(frame{…}).
func specFrame(u *blinkdb.StreamUpdate, elapsedMS float64, errMsg string) ([]byte, error) {
	f := frame{Seq: u.Seq, Level: u.Level, Final: u.Final, ElapsedMS: elapsedMS, Error: errMsg}
	if u.Result != nil {
		f.Result = toResultJSON(u.Result)
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(f)
	return buf.Bytes(), err
}

func checkFrame(t *testing.T, u *blinkdb.StreamUpdate, elapsedMS float64, errMsg string) {
	t.Helper()
	want, err := specFrame(u, elapsedMS, errMsg)
	if err != nil {
		t.Fatalf("specification cannot encode the case: %v", err)
	}
	if got := u.AppendFrame(nil, elapsedMS, errMsg); !bytes.Equal(got, want) {
		t.Errorf("AppendFrame differs from encoding/json:\n got %s\nwant %s", got, want)
	}
}

func TestWireEncodingTable(t *testing.T) {
	cell := func(name string, v, b, re float64) blinkdb.Cell {
		return blinkdb.Cell{Name: name, Value: v, Bound: b, RelErr: re, Exact: b == 0, Rows: 7}
	}
	one := func(group string, cells ...blinkdb.Cell) *blinkdb.Result {
		return &blinkdb.Result{
			Rows:       []blinkdb.ResultRow{{Group: group, Cells: cells}},
			Confidence: 0.95, SimLatencySeconds: 1.25, SampleDescription: "S([city], K=1000)",
			Explanation: "covering family [city]; resolution 1/2 (K=1000); cache=hit; result=miss",
			PlanCache:   "hit", ResultCache: "miss", RowsScanned: 12345, RowsMatched: 678, PredictedBound: 0.5,
		}
	}
	results := map[string]*blinkdb.Result{
		"zero groups":       {Confidence: 0.95, SampleDescription: "base table"},
		"row without cells": {Rows: []blinkdb.ResultRow{{Group: "g"}}},
		"plain":             one("NY", cell("AVG(sessiontime)", 101.5, 2.25, 2.25/101.5)),
		"two cells":         one("NY/Win7", cell("a", 1, 0, 0), cell("", -2.5, 0.125, 0.05)),
		"rel_err NaN":       one("(all)", cell("x", 0, 1, math.NaN())),
		"rel_err +Inf":      one("(all)", cell("x", 0, 1, math.Inf(1))),
		"rel_err -Inf":      one("(all)", cell("x", 0, 1, math.Inf(-1))),
		"exponent switch": one("e", cell("hi-", 1e21-1e5, 9.999999e20, 1e-6), cell("hi+", 1e21, 1.5e300, 9.99e-7),
			cell("lo", 1e-6, 1.0000001e-6, 9.999999999e-7), cell("tiny", 5e-324, math.MaxFloat64, 1e-9), cell("neg", -1e21, -1e-7, -1e-10)),
		"negative zero": one("z", cell("z", math.Copysign(0, -1), 0, 0)),
		"escapes": one("q\"b\\s<l>g&a\u2028u\u2029\xffbad\x00\x1f\b\f\n\r\t\x7fé",
			cell("a\"l<i>a&s\\\u2028\xc3", 1, 1, 1)),
		"no markers": {Rows: []blinkdb.ResultRow{{Group: "g", Cells: []blinkdb.Cell{cell("", 1, 2, 2)}}}},
	}
	for name, res := range results {
		t.Run(name, func(t *testing.T) {
			checkFrame(t, &blinkdb.StreamUpdate{Result: res, Seq: 3, Level: -1}, 0.0123, "")
			checkFrame(t, &blinkdb.StreamUpdate{Result: res, Level: 2, Final: true}, 1e-7, "")
		})
	}
	// A failure delivered in-band: no result, an error with every escape.
	checkFrame(t, &blinkdb.StreamUpdate{Final: true}, 12.5, "elp: no such table \"t<&>\"\n\u2028")
	checkFrame(t, &blinkdb.StreamUpdate{Final: true}, 0, "")

	// Where encoding/json refuses (NaN and ±Inf have no JSON form) a frame
	// still goes out, the number as null.
	res := one("g", cell("x", math.NaN(), math.Inf(1), 0))
	if _, err := specFrame(&blinkdb.StreamUpdate{Result: res}, 0, ""); err == nil {
		t.Fatal("encoding/json now encodes NaN; the null case needs a new look")
	}
	got := (&blinkdb.StreamUpdate{Result: res}).AppendFrame(nil, 0, "")
	var f frame
	if err := json.Unmarshal(got, &f); err != nil || !bytes.Contains(got, []byte(`"value":null,"bound":null`)) {
		t.Errorf("non-finite numbers must encode as null in a valid frame (%v): %s", err, got)
	}
}

func FuzzWireEncoding(f *testing.F) {
	f.Add("NY", "AVG(x)", 101.5, 2.25, 0.02, int64(7), true, "hit", "miss", uint8(2), 0.25, "")
	f.Add("a\"<\u2028\xff", "", 1e21, 1e-7, math.Inf(1), int64(-1), false, "", "", uint8(0), 1e-9, "boom & bust")
	f.Add("", "\\", -0.0, 9.999999e-7, math.NaN(), int64(math.MaxInt64), false, "", "shared", uint8(1), 1e22, "")
	f.Fuzz(func(t *testing.T, group, alias string, value, bound, relErr float64, rows int64, exact bool,
		planCache, resultCache string, nrows uint8, elapsedMS float64, errMsg string) {
		res := &blinkdb.Result{
			Confidence: bound, SimLatencySeconds: value, SampleDescription: group, Explanation: alias + group,
			PlanCache: planCache, ResultCache: resultCache, RowsScanned: rows, RowsMatched: -rows, PredictedBound: value,
		}
		for i := 0; i < int(nrows%4); i++ {
			c := blinkdb.Cell{Name: alias, Value: value, Bound: bound, RelErr: relErr, Exact: exact, Rows: rows}
			res.Rows = append(res.Rows, blinkdb.ResultRow{Group: group, Cells: []blinkdb.Cell{c, c}[:1+i%2]})
		}
		u := &blinkdb.StreamUpdate{Result: res, Seq: int(nrows), Level: int(rows % 5), Final: exact}
		if nrows > 200 {
			u.Result = nil
		}
		want, err := specFrame(u, elapsedMS, errMsg)
		if err != nil {
			var unsupported *json.UnsupportedValueError
			if !errors.As(err, &unsupported) {
				t.Fatal(err)
			}
			return // a non-finite value, bound or elapsed time: no specification to meet
		}
		if got := u.AppendFrame(nil, elapsedMS, errMsg); !bytes.Equal(got, want) {
			t.Errorf("AppendFrame differs from encoding/json:\n got %s\nwant %s", got, want)
		}
	})
}

// normalizeConfidencePct maps 0.95 and 95 (and "95%") all to 95.
func normalizeConfidencePct(v float64) float64 {
	if v <= 1 {
		return v * 100
	}
	return v
}

// renderBounds is how bound parameters were applied before bindBounds set
// them on the AST: as clause text appended to the SQL, parsed a second
// time. Kept as the oracle for TestBoundBindingMatchesRenderedText.
func renderBounds(req *queryRequest) (string, error) {
	q, err := sqlparser.Parse(req.SQL)
	if err != nil {
		return "", fmt.Errorf("parse error: %w", err)
	}
	sql := strings.TrimRight(strings.TrimSpace(req.SQL), ";")
	if req.Error != "" {
		if q.Err != nil {
			return "", errors.New("sql already specifies an ERROR bound; drop the error parameter")
		}
		bound, pct, err := parseBoundNumber(req.Error)
		if err != nil {
			return "", fmt.Errorf("bad error parameter: %w", err)
		}
		if pct {
			sql += fmt.Sprintf(" ERROR WITHIN %g%%", bound)
		} else {
			sql += fmt.Sprintf(" ERROR WITHIN %g", bound)
		}
		if req.Confidence != "" {
			conf, _, err := parseBoundNumber(req.Confidence)
			if err != nil {
				return "", fmt.Errorf("bad confidence parameter: %w", err)
			}
			sql += fmt.Sprintf(" AT CONFIDENCE %g%%", normalizeConfidencePct(conf))
		}
	} else if req.Confidence != "" {
		return "", errors.New("confidence parameter requires an error parameter")
	}
	if req.TimeSeconds != 0 {
		if req.TimeSeconds < 0 {
			return "", errors.New("time parameter must be positive")
		}
		if q.Time != nil {
			return "", errors.New("sql already specifies a WITHIN time bound; drop the time parameter")
		}
		sql += fmt.Sprintf(" WITHIN %g SECONDS", req.TimeSeconds)
	}
	return sql, nil
}

// TestBoundBindingMatchesRenderedText holds AST-bound parameters to the
// text they used to be rendered as: the same template key and the same
// parameter vector, or the same refusal. The one deliberate difference is
// a number %g renders with an exponent ("1e-07"), which the SQL lexer does
// not read: the rendered text failed to re-parse and the request was a
// 400; bound on the AST it is simply the number the client sent.
func TestBoundBindingMatchesRenderedText(t *testing.T) {
	const bare = `SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY'`
	cases := []struct {
		req      queryRequest
		exponent bool // the rendered text does not re-parse; the AST binding stands
	}{
		{req: queryRequest{SQL: bare, Error: "10%", Confidence: "95%", TimeSeconds: 2}},
		{req: queryRequest{SQL: boundedSQL, Error: "10%"}},
		{req: queryRequest{SQL: "SELECT COUNT(*) FROM sessions WITHIN 2 SECONDS", TimeSeconds: 1}},
		{req: queryRequest{SQL: "SELECT COUNT(*) FROM sessions", Confidence: "95%"}},
		{req: queryRequest{SQL: bare, Error: "0.05"}},
		{req: queryRequest{SQL: bare, Error: "5%"}},
		{req: queryRequest{SQL: bare + ";", Error: " 5% "}},
		{req: queryRequest{SQL: bare, Error: "5%", Confidence: "0.95"}},
		{req: queryRequest{SQL: bare, Error: "5%", Confidence: "95"}},
		{req: queryRequest{SQL: bare, Error: "5%", Confidence: "95%"}},
		{req: queryRequest{SQL: bare, Error: "0.5", Confidence: "0.9"}},
		{req: queryRequest{SQL: bare, Error: "12.5%", Confidence: "99.9%", TimeSeconds: 0.25}},
		{req: queryRequest{SQL: bare + " LIMIT 3", TimeSeconds: 1.5}},
		{req: queryRequest{SQL: bare + " WITHIN 1 SECONDS", Error: "1%"}},
		{req: queryRequest{SQL: bare, Error: "-0"}},
		{req: queryRequest{SQL: bare, Error: "0", Confidence: "0"}},
		{req: queryRequest{SQL: bare, Error: "-1"}},
		{req: queryRequest{SQL: bare, Error: "ten"}},
		{req: queryRequest{SQL: bare, Error: "5%", Confidence: "high"}},
		{req: queryRequest{SQL: bare, TimeSeconds: -1}},
		{req: queryRequest{SQL: "SELECT FROM"}},
		{req: queryRequest{SQL: bare, Error: "1e-7"}, exponent: true},
		{req: queryRequest{SQL: bare, Error: "5%", Confidence: "1e-7"}, exponent: true},
		{req: queryRequest{SQL: bare, TimeSeconds: 1e-7}, exponent: true},
		{req: queryRequest{SQL: bare, TimeSeconds: 1e21}, exponent: true},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%+v", c.req)
		q, err := bindBounds(&c.req)
		var want *sqlparser.Query
		sql, wantErr := renderBounds(&c.req)
		if wantErr == nil {
			want, wantErr = sqlparser.Parse(sql)
		}
		if c.exponent {
			if wantErr == nil || err != nil {
				t.Errorf("%s: expected the rendered text %q to fail (%v) and the AST binding to stand (%v)", name, sql, wantErr, err)
			}
			continue
		}
		if (err == nil) != (wantErr == nil) {
			t.Errorf("%s: bindBounds error %v, rendered text %q error %v", name, err, sql, wantErr)
			continue
		}
		if err != nil {
			if sql == "" && err.Error() != wantErr.Error() {
				t.Errorf("%s: refusal %q, was %q", name, err, wantErr)
			}
			continue
		}
		key, params := sqlparser.Normalize(q)
		wantKey, wantParams := sqlparser.Normalize(want)
		if key != wantKey || !sqlparser.ParamsEqual(params, wantParams) {
			t.Errorf("%s:\n got %s %v\nwant %s %v (from %q)", name, key, params, wantKey, wantParams, sql)
		}
		if !reflect.DeepEqual(q, want) {
			t.Errorf("%s: AST differs from parsing %q:\n got %+v\nwant %+v", name, sql, q, want)
		}
	}
}

// maskElapsed blanks the one field of a frame that differs from run to
// run.
func maskElapsed(t *testing.T, b []byte) []byte {
	t.Helper()
	const field = `"elapsed_ms":`
	i := bytes.Index(b, []byte(field))
	if i < 0 {
		t.Fatalf("frame without elapsed_ms: %s", b)
	}
	i += len(field)
	j := i + bytes.IndexByte(b[i:], ',')
	return append(append(append([]byte(nil), b[:i]...), '0'), b[j:]...)
}

// TestWireGolden holds whole replies — single, NDJSON and SSE; a miss, a
// hit (the cached bytes) and concurrent replays of a cold key (one miss,
// shared and hit for the rest) — to the specification: every frame is,
// byte for byte, the reflection encoding of what it decodes to, and the
// miss and the hit are the library's answers on a twin engine.
func TestWireGolden(t *testing.T) {
	eng, twin := demoEngine(t, 20000), demoEngine(t, 20000)
	srv := New(eng, Config{})
	const sql = `SELECT AVG(sessiontime) AS a, COUNT(*) FROM sessions GROUP BY city ERROR WITHIN 5%`

	frames := func(w *httptest.ResponseRecorder, sse bool) [][]byte {
		t.Helper()
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		body := w.Body.Bytes()
		if !sse {
			return bytes.SplitAfter(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		}
		var out [][]byte
		for _, ev := range bytes.SplitAfter(body, []byte("\n\n")) {
			if len(ev) == 0 {
				continue
			}
			if !bytes.HasPrefix(ev, []byte("data: ")) || !bytes.HasSuffix(ev, []byte("}\n\n")) {
				t.Fatalf("bad SSE event %q", ev)
			}
			out = append(out, ev[len("data: "):len(ev)-1])
		}
		return out
	}
	// roundTrip requires a frame to be exactly what encoding/json makes of
	// its own decoding, and returns that.
	roundTrip := func(b []byte) frame {
		t.Helper()
		if !bytes.HasSuffix(b, []byte("}\n")) {
			b = append(b, '\n') // SplitAfter left the last NDJSON line bare
		}
		var f frame
		if err := json.Unmarshal(b, &f); err != nil {
			t.Fatalf("%v: %s", err, b)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(f); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(maskElapsed(t, b), maskElapsed(t, buf.Bytes())) {
			t.Fatalf("frame is not the reflection encoding of itself:\n got %s\nwant %s", b, buf.Bytes())
		}
		return f
	}
	post := func(stream, sse bool) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(fmt.Sprintf(`{"sql": %q, "stream": %v}`, sql, stream)))
		if sse {
			req.Header.Set("Accept", "text/event-stream")
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		return w
	}

	// Serial: a streamed miss, then hits in every reply form, against the
	// twin's library answers.
	miss, err := twin.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := twin.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if miss.ResultCache != "miss" || hit.ResultCache != "hit" {
		t.Fatalf("twin markers %q, %q", miss.ResultCache, hit.ResultCache)
	}
	fs := frames(post(true, false), false)
	for i, b := range fs {
		f := roundTrip(b)
		if f.Seq != i || f.Final != (i == len(fs)-1) {
			t.Fatalf("frame %d: seq %d final %v", i, f.Seq, f.Final)
		}
		if f.Final && !reflect.DeepEqual(f.Result, toResultJSON(miss)) {
			t.Fatalf("streamed miss diverges from library mode:\n got %+v\nwant %+v", f.Result, toResultJSON(miss))
		}
	}
	for _, form := range []struct{ stream, sse bool }{{false, false}, {true, false}, {true, true}, {false, false}} {
		w := post(form.stream, form.sse)
		fs := frames(w, form.sse)
		if len(fs) != 1 {
			t.Fatalf("a hit is one frame, got %d", len(fs))
		}
		f := roundTrip(fs[0])
		if !f.Final || !reflect.DeepEqual(f.Result, toResultJSON(hit)) {
			t.Fatalf("hit (stream=%v sse=%v) diverges from library mode:\n got %+v\nwant %+v", form.stream, form.sse, f.Result, toResultJSON(hit))
		}
		if cl := w.Header().Get("Content-Length"); !form.stream && cl != fmt.Sprint(w.Body.Len()) {
			t.Errorf("single frame: Content-Length %q for %d bytes", cl, w.Body.Len())
		}
	}

	// Concurrent replays of a cold key: whatever mix of miss, shared and
	// hit the race produces, every reply meets the specification and
	// carries the one answer.
	const cold = `SELECT AVG(sessiontime) FROM sessions WHERE city = 'LA' GROUP BY os ERROR WITHIN 5%`
	want, err := twin.Query(cold)
	if err != nil {
		t.Fatal(err)
	}
	replies := make([]*httptest.ResponseRecorder, 8)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(fmt.Sprintf(`{"sql": %q, "stream": %v}`, cold, i%2 == 1)))
			replies[i] = httptest.NewRecorder()
			srv.ServeHTTP(replies[i], req)
		}(i)
	}
	wg.Wait()
	markers := map[string]int{}
	for _, w := range replies {
		fs := frames(w, false)
		f := roundTrip(fs[len(fs)-1])
		markers[f.Result.ResultCache]++
		if !reflect.DeepEqual(f.Result.Rows, toResultJSON(want).Rows) {
			t.Errorf("%s reply diverges from library mode:\n got %+v\nwant %+v", f.Result.ResultCache, f.Result.Rows, toResultJSON(want).Rows)
		}
	}
	if markers["miss"] != 1 {
		t.Errorf("one execution expected, markers %v", markers)
	}
	t.Logf("concurrent cold key: %v", markers)
}
