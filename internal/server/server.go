// Package server is the HTTP serving layer over a blinkdb.Engine: a
// plain http.Handler (embeddable in any mux or test server) that exposes
// bounded queries as JSON, streams refinement sessions as NDJSON or SSE,
// and sheds overload *before any scanning happens* via ELP-priced
// admission control.
//
// The admission gate sits between parse and plan: a request is parsed
// (cheap, allocation-bounded) so its normalized template key prices the
// queue entry — with the engine's cost estimate for the template
// (Engine.TemplateWallSeconds) when it has one, a flat default otherwise
// — and only admitted requests ever reach the planner or executor. The
// gate itself keeps no per-template state. A rejected request costs
// one parse and one mutex acquisition and gets 429 with a Retry-After
// estimated from the predicted backlog, which is what keeps a 2×
// overload burst from converting bounded-latency queries into an
// unbounded queue.
//
// # Request pipeline
//
// A /query request is bytes → one AST → cache entry → bytes. The body (at
// most 1 MiB; more is a 413) is read into a pooled buffer; the SQL is
// parsed once, error / confidence / time_seconds are set on that AST as
// the parser would have set them from clause text, and NewStatement
// normalizes it once: the key prices admission and, with the parameters,
// finds the cached answer. Every frame — miss, hit or shared; single,
// NDJSON or SSE — leaves through StreamUpdate.AppendFrame into the same
// buffer and one Write. Cached, per result-cache entry: the served form
// of its answer — the Result a hit returns and the encoding of the
// frame's "result" — built on the entry's first hit and dropped with it,
// so a hit allocates the same whatever the size of the answer
// (TestHitPathAllocs). Per request: the envelope (seq, level, final,
// elapsed_ms), admission, and the form's one precondition — aliases are
// not part of the cache key, so a hit naming its columns otherwise is
// built and encoded for itself, as is every EXPLAIN ANALYZE.
//
// Endpoints:
//
//	POST /query   {"sql": "...", "stream": true, ...}  (also GET with ?sql=)
//	GET  /healthz liveness
//	GET  /stats   engine + admission + serving counters
//
// Streaming responses are NDJSON frames by default, Server-Sent Events
// when the client sends Accept: text/event-stream. Every frame is a
// complete answer with error bounds; the last frame has "final": true
// and is bit-identical to what the non-streaming path returns.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blinkdb"
	"blinkdb/internal/admission"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/telemetry"
)

// Config tunes the serving layer. The zero value serves with the
// admission defaults.
type Config struct {
	// Admission bounds the controller (see admission.Config).
	Admission admission.Config
	// DefaultCostSeconds prices templates the engine has no cost
	// estimate for (default 0.1s).
	DefaultCostSeconds float64
	// Warming starts the server in the not-ready state: /healthz reports
	// 503 {"status":"warming"} and /query refuses with 503 until
	// SetReady. Lets the listener come up immediately while the engine
	// loads samples and warmup state behind it.
	Warming bool
	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
}

// Server is the HTTP handler. Use New.
type Server struct {
	eng   *blinkdb.Engine
	adm   *admission.Controller
	met   *telemetry.ServerMetrics
	mux   *http.ServeMux
	cfg   Config
	ready atomic.Bool
}

// New wraps eng in the serving layer.
func New(eng *blinkdb.Engine, cfg Config) *Server {
	if cfg.DefaultCostSeconds <= 0 {
		cfg.DefaultCostSeconds = 0.1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Server{
		eng: eng,
		adm: admission.New(cfg.Admission),
		met: &telemetry.ServerMetrics{},
		mux: http.NewServeMux(),
		cfg: cfg,
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.ready.Store(!cfg.Warming)
	return s
}

// SetReady marks warming complete: /healthz flips to 200 "ok" and
// /query starts admitting. One-way; call after samples and warmup state
// have loaded.
func (s *Server) SetReady() { s.ready.Store(true) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics exposes the serving histograms (queue wait, TTFA, TTF) for
// benchmarking and tests.
func (s *Server) Metrics() *telemetry.ServerMetrics { return s.met }

// queryRequest is the /query payload. GET requests supply the same
// fields as URL parameters (sql, stream, error, confidence, time).
type queryRequest struct {
	SQL string `json:"sql"`
	// Stream requests a refinement session (NDJSON or SSE) instead of a
	// single JSON answer.
	Stream bool `json:"stream,omitempty"`
	// Error is a per-request error bound ("10%" relative or "0.5"
	// absolute), set on the query as its ERROR WITHIN clause. Rejected
	// when the SQL already carries one.
	Error string `json:"error,omitempty"`
	// Confidence qualifies Error ("95%"; default the engine's).
	Confidence string `json:"confidence,omitempty"`
	// TimeSeconds is a per-request response-time bound, set as the
	// query's WITHIN n SECONDS clause. Rejected when the SQL already
	// carries one.
	TimeSeconds float64 `json:"time_seconds,omitempty"`
}

// maxBodyBytes bounds a POST body; a longer one is answered 413.
const maxBodyBytes = 1 << 20

// scratch is a request's one reusable buffer: first the POST body, then —
// json.Unmarshal having copied what it keeps — each frame on its way out.
type scratch struct{ b []byte }

var (
	scratchPool     = sync.Pool{New: func() any { return new(scratch) }}
	jsonContentType = []string{"application/json"} // shared: net/http only reads it
)

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "warming"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"engine":    s.eng.Stats(),
		"admission": s.adm.Snapshot(),
		"server":    s.met.Snapshot(),
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": "warming: samples and warmup state still loading"})
		return
	}
	arrival := s.cfg.Now()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	req, err := decodeRequest(w, r, sc)
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	began := time.Now()
	q, err := bindBounds(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := blinkdb.NewStatement(q, began)

	// Admission: everything above was parse-only. Price the queue entry
	// with the engine's cost estimate when it has one.
	cost := s.cfg.DefaultCostSeconds
	if est, ok := s.eng.TemplateWallSeconds(st.Key); ok {
		cost = est
	}
	ticket, err := s.adm.Admit(r.Context(), cost)
	if err != nil {
		var shed *admission.ShedError
		if errors.As(err, &shed) {
			s.met.RecordShed()
			retry := retryAfterSeconds(shed.RetryAfter)
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":               "overloaded: query shed by admission control",
				"retry_after_seconds": retry,
				"queued":              shed.Queued,
				"backlog_seconds":     shed.BacklogSeconds,
			})
			return
		}
		// Client went away while queued. Nothing useful to write, but the
		// arrival must not vanish from accounting: without this record,
		// admitted + shed + queue-cancelled drifts away from arrivals under
		// bursty load and conservation checks can't hold.
		s.met.RecordQueueCancel()
		return
	}
	s.met.RecordAdmit(ticket.WaitSeconds)

	// The seat covers compute only: each handler releases the ticket as
	// soon as the engine has the final answer, before that answer is
	// encoded and written. Holding it through the write would let one
	// client that stops reading a large reply wedge every later query
	// behind it. The cost estimate is the engine's: its clock leaves out
	// the time a stream's frames spend draining to the client, so a slow
	// consumer cannot inflate it and shed everyone else's queries.
	if req.Stream {
		s.streamQuery(w, r, st, sc, arrival, ticket)
	} else {
		s.singleQuery(w, r, st, sc, arrival, ticket)
	}
}

// retryAfterSeconds renders a shed backoff as whole seconds for the
// Retry-After header and the JSON mirror. Rounds up — truncation would
// tell clients to come back before the backlog drains, and could emit
// the illegal "Retry-After: 0" for sub-second hints.
func retryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	return int((d + time.Second - 1) / time.Second)
}

// singleQuery answers with one JSON frame in one Write. It releases the
// ticket when Answer returns.
func (s *Server) singleQuery(w http.ResponseWriter, r *http.Request, st blinkdb.Statement, sc *scratch, arrival time.Time, ticket *admission.Ticket) {
	u, err := s.eng.Answer(r.Context(), st)
	ticket.Release()
	if err != nil {
		if r.Context().Err() == nil { // else the client is gone; the engine counted the cancel
			writeError(w, http.StatusUnprocessableEntity, err)
		}
		return
	}
	elapsed := s.cfg.Now().Sub(arrival).Seconds()
	s.met.RecordFirstAnswer(elapsed)
	s.met.RecordFinal(elapsed)
	sc.b = u.AppendFrame(sc.b[:0], elapsed*1000, "")
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(sc.b))}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.b) // a client that left mid-reply is nobody's error
}

// streamQuery answers with one frame per refinement: NDJSON lines by
// default, SSE "data:" events when the client asked for an event stream,
// each frame one Write followed by a flush. It releases the ticket when
// the final update arrives, before that frame is encoded and written
// (the refinements before it are written inside the seat), or when the
// stream fails.
func (s *Server) streamQuery(w http.ResponseWriter, r *http.Request, st blinkdb.Statement, sc *scratch, arrival time.Time, ticket *admission.Ticket) {
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	emit := func(u *blinkdb.StreamUpdate, elapsed float64, errMsg string) error {
		b := sc.b[:0]
		if sse {
			b = append(b, "data: "...)
		}
		b = u.AppendFrame(b, elapsed*1000, errMsg)
		if sse {
			b = append(b, '\n')
		}
		sc.b = b
		if _, err := w.Write(b); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	first := true
	err := s.eng.Stream(r.Context(), st, func(u blinkdb.StreamUpdate) error {
		elapsed := s.cfg.Now().Sub(arrival).Seconds()
		if first {
			s.met.RecordFirstAnswer(elapsed)
			first = false
		}
		if u.Final {
			s.met.RecordFinal(elapsed)
			ticket.Release()
			ticket = nil
		}
		return emit(&u, elapsed, "")
	})
	if ticket != nil { // no final update: the stream failed
		ticket.Release()
	}
	if err != nil && r.Context().Err() == nil {
		// Headers are gone; deliver the failure in-band as a final frame.
		_ = emit(&blinkdb.StreamUpdate{Final: true}, s.cfg.Now().Sub(arrival).Seconds(), err.Error())
	}
}

// decodeRequest reads a queryRequest from JSON (POST; at most
// maxBodyBytes, read through sc) or URL parameters (GET).
func decodeRequest(w http.ResponseWriter, r *http.Request, sc *scratch) (*queryRequest, error) {
	req := &queryRequest{}
	switch r.Method {
	case http.MethodPost:
		body := bytes.NewBuffer(sc.b[:0])
		_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		sc.b = body.Bytes()
		if err == nil {
			err = json.Unmarshal(sc.b, req)
		}
		if err != nil {
			return nil, fmt.Errorf("bad request body: %w", err)
		}
	case http.MethodGet:
		qv := r.URL.Query()
		req.SQL = qv.Get("sql")
		req.Stream = qv.Get("stream") == "1" || qv.Get("stream") == "true"
		req.Error = qv.Get("error")
		req.Confidence = qv.Get("confidence")
		if t := qv.Get("time"); t != "" {
			secs, err := strconv.ParseFloat(t, 64)
			if err != nil || math.IsNaN(secs) || math.IsInf(secs, 0) {
				return nil, fmt.Errorf("bad time parameter %q", t)
			}
			req.TimeSeconds = secs
		}
	default:
		return nil, fmt.Errorf("method %s not allowed", r.Method)
	}
	if strings.TrimSpace(req.SQL) == "" {
		return nil, errors.New("missing sql")
	}
	return req, nil
}

// bindBounds parses the SQL — the request's one parse — and sets the
// per-request bound parameters on the AST exactly as the parser would
// have from "ERROR WITHIN e AT CONFIDENCE c% WITHIN t SECONDS". Bound
// parameters conflict with bounds already written in the SQL — that's an
// error, not an override.
func bindBounds(req *queryRequest) (*sqlparser.Query, error) {
	q, err := sqlparser.Parse(req.SQL)
	if err != nil {
		return nil, fmt.Errorf("parse error: %w", err)
	}
	if req.Error != "" {
		if q.Err != nil {
			return nil, errors.New("sql already specifies an ERROR bound; drop the error parameter")
		}
		bound, pct, err := parseBoundNumber(req.Error)
		if err != nil {
			return nil, fmt.Errorf("bad error parameter: %w", err)
		}
		q.Err = &sqlparser.ErrorBound{Relative: pct, Bound: bound, Confidence: sqlparser.DefaultConfidence}
		if pct {
			q.Err.Bound = bound / 100
		}
		if req.Confidence != "" {
			conf, _, err := parseBoundNumber(req.Confidence)
			if err != nil {
				return nil, fmt.Errorf("bad confidence parameter: %w", err)
			}
			if conf <= 1 {
				conf *= 100 // 0.95, 95 and "95%" all mean 95%
			}
			q.Err.Confidence = conf / 100
		}
	} else if req.Confidence != "" {
		return nil, errors.New("confidence parameter requires an error parameter")
	}
	if req.TimeSeconds != 0 {
		if req.TimeSeconds < 0 {
			return nil, errors.New("time parameter must be positive")
		}
		if q.Time != nil {
			return nil, errors.New("sql already specifies a WITHIN time bound; drop the time parameter")
		}
		q.Time = &sqlparser.TimeBound{Seconds: req.TimeSeconds}
	}
	return q, nil
}

// parseBoundNumber parses "10%" or "0.1"-style parameters.
func parseBoundNumber(s string) (v float64, pct bool, err error) {
	s = strings.TrimSpace(s)
	if strings.HasSuffix(s, "%") {
		pct = true
		s = strings.TrimSuffix(s, "%")
	}
	v, err = strconv.ParseFloat(s, 64)
	if err != nil || v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, false, fmt.Errorf("not a valid bound: %q", s)
	}
	return v, pct, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
