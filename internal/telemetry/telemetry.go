// Package telemetry is the query-lifecycle observability layer: per-query
// span trees with monotonic timestamps, fixed-size log-bucketed
// histograms, and a per-template registry that accounts predicted
// (ELP-projected) against observed latency and error.
//
// The package is deliberately a leaf — it imports only the standard
// library — so the executor, the ELP runtime and the public engine can all
// thread the same Trace/Registry through without import cycles.
//
// # Overhead contract
//
// Disabled means free. Every Trace and Span method is safe on a nil
// receiver and returns immediately without allocating, so call sites
// thread a possibly-nil *Span unconditionally; the only cost on the
// disabled path is the nil check (pinned at 0 allocs/op by
// TestDisabledPathZeroAllocs). Callers must guard span-name formatting
// themselves (`if sp != nil { sp.Child(fmt.Sprintf(...)) }`) — the
// fmt.Sprintf would otherwise be the allocation.
//
// Enabled tracing costs one small allocation per span plus a mutex-guarded
// append; enabled histogram recording is a handful of atomic operations
// and zero allocations (Histogram.Record is also alloc-pinned). Result-
// cache hits record only the two latency histograms — a hit scans
// nothing, so the scan-shaped metrics (rows, bytes, bounds) are recorded
// only for executed queries (Observation.Executed), keeping the
// microsecond-scale hit path cheap. The enabled end-to-end overhead is
// the benchmark's trace.overhead_fraction (go run ./benchmark -trace 1).
//
// # Disabled-path guarantee
//
// A runtime with no Registry and no Trace performs no timestamp reads, no
// histogram updates and no allocations on behalf of this package, and
// query answers are bit-identical to a build without telemetry: the only
// telemetry-adjacent work on that path, the Decision.PredictedBound
// projection, is computed unconditionally and deterministically so
// enabling telemetry can never change an answer.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace is one query's span tree. Create with New, pass Root() down the
// pipeline, and Finish when the query completes. All methods are safe on a
// nil *Trace (no-ops), and safe for concurrent use — per-range scan spans
// are created from worker goroutines.
type Trace struct {
	mu   sync.Mutex
	root *Span
}

// New starts a trace whose root span begins now.
func New(name string) *Trace {
	tr := &Trace{}
	tr.root = &Span{tr: tr, name: name, start: time.Now()}
	return tr
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.root.End()
}

// Span is one timed phase of a query. Spans form a tree under the trace's
// root; timestamps use Go's monotonic clock (time.Now/time.Since), so
// durations are immune to wall-clock jumps. All methods are nil-safe.
type Span struct {
	tr    *Trace
	name  string
	start time.Time

	// Guarded by tr.mu.
	dur      time.Duration
	ended    bool
	notes    []string
	children []*Span
}

// Child starts a sub-span. Safe to call from any goroutine; children
// appear in creation order.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, start: time.Now()}
	s.tr.mu.Lock()
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// End stops the span's clock. The first End wins; later calls are no-ops,
// so defensive double-ends on error paths are harmless.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.tr.mu.Lock()
	if !s.ended {
		s.ended, s.dur = true, d
	}
	s.tr.mu.Unlock()
}

// Note attaches an annotation (e.g. "cache=hit") rendered next to the
// span. Notes may be added after End — cache outcomes are often known
// only once the lookup span has closed.
func (s *Span) Note(note string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.notes = append(s.notes, note)
	s.tr.mu.Unlock()
}

// Name returns the span's label ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span's start time (zero for nil). Immutable after
// creation, so no lock is needed; useful for asserting ordering between
// sibling spans (e.g. a streaming session's first refinement starting
// before its final one).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the span's elapsed time — final after End, running
// until then (0 for nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Notes returns a copy of the span's annotations.
func (s *Span) Notes() []string {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return append([]string(nil), s.notes...)
}

// Children returns a copy of the span's direct children in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// maxRenderChildren caps how many children of one span Render prints —
// a 100-node scan produces up to 100 shard spans; the tree stays readable
// and the elided count is reported.
const maxRenderChildren = 12

// Render draws the span tree with per-span durations and notes:
//
//	query                          1.82ms
//	├─ normalize                   2µs
//	├─ result-cache lookup         1µs  [result=miss]
//	└─ execute                     1.8ms
//	   ├─ plan-cache lookup        1µs  [cache=miss]
//	   ...
//
// Children beyond maxRenderChildren per node are elided with a count.
// Returns "" for a nil trace.
func (t *Trace) Render() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	renderSpan(&b, t.root, "", "", "")
	return b.String()
}

func renderSpan(b *strings.Builder, s *Span, lead, branch, childLead string) {
	line := lead + branch + s.Name()
	fmt.Fprintf(b, "%-42s %s", line, fmtDur(s.Duration()))
	if notes := s.Notes(); len(notes) > 0 {
		fmt.Fprintf(b, "  [%s]", strings.Join(notes, "; "))
	}
	b.WriteByte('\n')
	kids := s.Children()
	shown := kids
	if len(shown) > maxRenderChildren {
		shown = shown[:maxRenderChildren]
	}
	for i, c := range shown {
		last := i == len(shown)-1 && len(kids) <= maxRenderChildren
		if last {
			renderSpan(b, c, lead+childLead, "└─ ", "   ")
		} else {
			renderSpan(b, c, lead+childLead, "├─ ", "│  ")
		}
	}
	if n := len(kids) - len(shown); n > 0 {
		var total time.Duration
		for _, c := range kids[len(shown):] {
			total += c.Duration()
		}
		fmt.Fprintf(b, "%s└─ … (+%d more spans, %s)\n", lead+childLead, n, fmtDur(total))
	}
}

// fmtDur renders durations compactly at µs precision (traces care about
// microseconds, not nanosecond noise).
func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// Walk visits every span depth-first (parent before children), passing
// the nesting depth (root = 0). No-op on a nil trace.
func (t *Trace) Walk(fn func(s *Span, depth int)) {
	if t == nil {
		return
	}
	walkSpan(t.root, 0, fn)
}

func walkSpan(s *Span, depth int, fn func(*Span, int)) {
	fn(s, depth)
	for _, c := range s.Children() {
		walkSpan(c, depth+1, fn)
	}
}

// spanStart exposes the monotonic start for the Chrome exporter.
func (s *Span) spanStart() time.Time { return s.start }

// sortedSpans flattens the tree in start order (ties broken by creation
// order, which Walk preserves).
func (t *Trace) sortedSpans() []*Span {
	var all []*Span
	t.Walk(func(s *Span, _ int) { all = append(all, s) })
	sort.SliceStable(all, func(i, j int) bool {
		return all[i].spanStart().Before(all[j].spanStart())
	})
	return all
}
