package telemetry

import "sync/atomic"

// ServerMetrics aggregates the serving-layer signals blinkdb-server
// reports on /stats: admission outcomes and the latency shape of streaming
// sessions. The interesting serving quantity is the gap between
// TimeToFirstAnswer and TimeToFinal — how much sooner a streaming client
// has *an* answer than *the* answer — plus how long admitted queries waited
// in the queue before scanning.
//
// The zero value is ready to use; all methods are safe for concurrent use
// and nil-safe, so call sites can thread an optional *ServerMetrics
// without guards.
type ServerMetrics struct {
	admitted       atomic.Int64
	shed           atomic.Int64
	queueCancelled atomic.Int64
	queueWait      Histogram // seconds from arrival to admission grant
	ttfa           Histogram // seconds from arrival to first streamed refinement
	ttf            Histogram // seconds from arrival to final answer
}

// RecordAdmit counts one admitted request and its queue wait in seconds.
func (m *ServerMetrics) RecordAdmit(waitSeconds float64) {
	if m == nil {
		return
	}
	m.admitted.Add(1)
	m.queueWait.Record(waitSeconds)
}

// RecordShed counts one request rejected by admission control.
func (m *ServerMetrics) RecordShed() {
	if m == nil {
		return
	}
	m.shed.Add(1)
}

// RecordQueueCancel counts one request whose client went away while it
// was still queued for admission — neither admitted nor shed. Tracking
// it keeps the books balanced: arrivals that reached admission equal
// Admitted + Shed + QueueCancelled.
func (m *ServerMetrics) RecordQueueCancel() {
	if m == nil {
		return
	}
	m.queueCancelled.Add(1)
}

// RecordFirstAnswer records the seconds from request arrival to the first
// streamed refinement (for non-streaming requests, the only answer — then
// TTFA and TTF coincide).
func (m *ServerMetrics) RecordFirstAnswer(seconds float64) {
	if m == nil {
		return
	}
	m.ttfa.Record(seconds)
}

// RecordFinal records the seconds from request arrival to the final
// (authoritative) answer.
func (m *ServerMetrics) RecordFinal(seconds float64) {
	if m == nil {
		return
	}
	m.ttf.Record(seconds)
}

// ServerSnapshot is a point-in-time summary of ServerMetrics.
type ServerSnapshot struct {
	// Admitted / Shed count admission outcomes since start; QueueCancelled
	// counts arrivals whose client gave up while still queued. ShedRate is
	// Shed/(Admitted+Shed), 0 before any request.
	Admitted       int64
	Shed           int64
	QueueCancelled int64
	ShedRate       float64
	// QueueWait summarizes seconds spent queued before admission.
	QueueWait Percentiles
	// TimeToFirstAnswer / TimeToFinal summarize seconds from arrival to
	// the first refinement and to the final answer. Their p50 gap is the
	// latency a streaming client saves over waiting for the final.
	TimeToFirstAnswer Percentiles
	TimeToFinal       Percentiles
}

// Snapshot folds the metrics into a reportable summary (zero-valued for
// nil).
func (m *ServerMetrics) Snapshot() ServerSnapshot {
	if m == nil {
		return ServerSnapshot{}
	}
	s := ServerSnapshot{
		Admitted:          m.admitted.Load(),
		Shed:              m.shed.Load(),
		QueueCancelled:    m.queueCancelled.Load(),
		QueueWait:         percentilesOf(m.queueWait.Snapshot()),
		TimeToFirstAnswer: percentilesOf(m.ttfa.Snapshot()),
		TimeToFinal:       percentilesOf(m.ttf.Snapshot()),
	}
	if total := s.Admitted + s.Shed; total > 0 {
		s.ShedRate = float64(s.Shed) / float64(total)
	}
	return s
}
