package telemetry

import (
	"math"
	"sort"
	"sync"
)

// Registry accumulates per-template histograms across every query a
// runtime executes. The ELP runtime calls Observe once per completed
// query with the normalized template key; Snapshot folds the histograms
// into percentile summaries for Engine.Telemetry, the REPL's \stats and
// the bench's telemetry record.
//
// The registry holds at most MaxTemplates templates: the keys first
// observed after it is full share one entry, reported under OtherKey, so
// a stream of distinct templates costs bounded memory and Snapshot still
// accounts for every observation.
//
// Each template's record also holds its cost estimate, the one answer to
// "how long will a query of this template take" that admission prices
// with (ObservedWallSeconds); SeedCost restores it across restarts.
//
// A nil *Registry is the disabled state: Observe is a nil-safe no-op.
type Registry struct {
	mu        sync.RWMutex
	templates map[string]*TemplateStats
	other     *TemplateStats // the keys past MaxTemplates; nil until one is met
}

const (
	// MaxTemplates bounds the registry's distinct templates.
	MaxTemplates = 4096
	// OtherKey is the snapshot key of the templates first observed after
	// the registry held MaxTemplates.
	OtherKey = "(other templates)"
	// costAlpha is the weight of the newest observation in a template's
	// cost estimate.
	costAlpha = 0.3
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{templates: make(map[string]*TemplateStats)}
}

// TemplateStats is the live per-template accumulator. Histograms are
// lock-free; the enclosing map is guarded by the registry's RWMutex with
// a read-locked fast path, so concurrent observers of a warm template
// never serialize on a write lock.
type TemplateStats struct {
	latency     Histogram // observed wall-clock seconds
	predLatency Histogram // ELP-predicted (simulated cluster) seconds
	rows        Histogram // rows scanned
	bytes       Histogram // bytes scanned
	predBound   Histogram // ELP-projected CI half-width
	obsBound    Histogram // reported CI half-width (worst group)
	// cost is the template's cost estimate in wall seconds: an EWMA of
	// its observations, 0 until the first one (or a seed) sets it.
	cost atomicFloat
}

// Observation is one completed query's accounting, recorded against its
// normalized template key.
type Observation struct {
	// WallSeconds is observed wall-clock execution time. PredictedSeconds
	// is the ELP's simulated-cluster latency for the same query; the two
	// are different clocks (real single-process vs simulated 100-node), so
	// their ratio is a per-template calibration constant, not an error.
	WallSeconds      float64
	PredictedSeconds float64

	// Executed reports whether the query actually ran a scan. Result-cache
	// hits (and singleflight-shared results) scan nothing, so the
	// scan-shaped histograms — rows, bytes and the two error bounds —
	// are only recorded for executed queries; recording a cached
	// execution's values again would double-count work that never
	// happened. Latency histograms record every query regardless, which
	// also keeps the hot cache-hit path at two histogram updates.
	Executed bool

	RowsScanned  int64
	BytesScanned int64

	// PredictedBound is the ELP's projected error half-width at the chosen
	// resolution (worst disjunct); ObservedBound is the half-width actually
	// reported with the answer. Same units, so predicted/observed here is
	// the calibration signal the adaptive loop consumes.
	PredictedBound float64
	ObservedBound  float64
}

// Observe records one query. Nil-safe; concurrent-safe.
func (r *Registry) Observe(key string, o Observation) {
	if r == nil {
		return
	}
	ts := r.record(key, true)
	ts.latency.Record(o.WallSeconds)
	ts.predLatency.Record(o.PredictedSeconds)
	if validCost(o.WallSeconds) {
		ts.cost.fold(o.WallSeconds)
	}
	if o.Executed {
		ts.rows.Record(float64(o.RowsScanned))
		ts.bytes.Record(float64(o.BytesScanned))
		ts.predBound.Record(o.PredictedBound)
		ts.obsBound.Record(o.ObservedBound)
	}
}

// record returns key's entry, creating it while the registry holds fewer
// than MaxTemplates; past that, OtherKey's shared entry when overflow is
// set, nil otherwise.
func (r *Registry) record(key string, overflow bool) *TemplateStats {
	r.mu.RLock()
	ts := r.templates[key]
	if ts == nil && overflow && len(r.templates) >= MaxTemplates {
		ts = r.other
	}
	r.mu.RUnlock()
	if ts != nil {
		return ts
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch ts = r.templates[key]; {
	case ts != nil:
	case len(r.templates) < MaxTemplates:
		ts = &TemplateStats{}
		r.templates[key] = ts
	case overflow:
		if r.other == nil {
			r.other = &TemplateStats{}
		}
		ts = r.other
	}
	return ts
}

// validCost reports whether v may enter a cost estimate: positive and
// finite. A 0 is a query that did not run; NaN and +Inf would poison
// every later fold.
func validCost(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// ObservedWallSeconds returns template key's cost estimate: an EWMA
// (α = 0.3) of its observed wall seconds, the first observation setting
// it, or the seed SeedCost restored when none has been observed since.
// It is false when the template has neither, or was folded into
// OtherKey's entry. Serving layers price admission with it: one map
// lookup and one atomic load. Nil-safe.
func (r *Registry) ObservedWallSeconds(key string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.RLock()
	ts := r.templates[key]
	r.mu.RUnlock()
	if ts == nil {
		return 0, false
	}
	c := ts.cost.load()
	return c, c > 0
}

// Costs returns every template's cost estimate by key (seeded ones
// included, OtherKey's entry never), for persistence. Nil-safe.
func (r *Registry) Costs() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]float64, len(r.templates))
	for k, ts := range r.templates {
		if c := ts.cost.load(); c > 0 {
			out[k] = c
		}
	}
	return out
}

// SeedCost sets template key's cost estimate to seconds, a value a
// previous process learned, and reports whether it did. It does nothing
// when the template already has an estimate (a live observation is newer
// than any snapshot), when seconds is not positive and finite, or when
// the registry is full. A seeded template joins Snapshot only once it is
// observed. Nil-safe.
func (r *Registry) SeedCost(key string, seconds float64) bool {
	if r == nil || !validCost(seconds) {
		return false
	}
	ts := r.record(key, false)
	return ts != nil && ts.cost.bits.CompareAndSwap(0, math.Float64bits(seconds))
}

// Percentiles summarizes one histogram for reporting.
type Percentiles struct {
	Count uint64
	Mean  float64
	Max   float64
	P50   float64
	P95   float64
	P99   float64
}

func percentilesOf(s HistSnapshot) Percentiles {
	return Percentiles{
		Count: s.Count,
		Mean:  s.Mean(),
		Max:   s.Max,
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
	}
}

// TemplateSnapshot is one template's folded summary.
type TemplateSnapshot struct {
	Key     string
	Queries uint64

	// Latency histograms cover every query; the scan-shaped histograms
	// below (rows, bytes, bounds) cover only *executed* queries, so their
	// Count is Queries minus result-cache hits.
	Latency          Percentiles // observed wall-clock seconds
	PredictedLatency Percentiles // simulated-cluster seconds
	RowsScanned      Percentiles
	BytesScanned     Percentiles
	PredictedBound   Percentiles // ELP-projected error half-width
	ObservedBound    Percentiles // reported error half-width

	// PredictedOverObservedLatency is mean predicted / mean observed
	// latency — a calibration constant relating simulated-cluster seconds
	// to local wall-clock, stable per template. 0 when observed is 0.
	PredictedOverObservedLatency float64
	// PredictedOverObservedBound is mean predicted / mean observed error
	// half-width; ≈1 means the 1/√n projection is honest, >1 conservative.
	// 0 when the observed mean is 0 (exact-only template) — and a 0 ratio
	// against a positive observed mean is itself a calibration finding:
	// the template's cached probe ran on a fully-sampled stratum (exact,
	// zero projected half-width) while later bindings hit sampled strata.
	PredictedOverObservedBound float64
}

// Snapshot folds the registry into per-template summaries, sorted by key
// for deterministic output. Nil-safe (returns an empty snapshot).
type Snapshot struct {
	Templates []TemplateSnapshot
}

// Snapshot summarizes every template observed so far, those first
// observed past MaxTemplates as one entry keyed OtherKey. A template that
// was only seeded is left out.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	keys := make([]string, 0, len(r.templates)+1)
	stats := make([]*TemplateStats, 0, len(r.templates)+1)
	for k, ts := range r.templates {
		keys = append(keys, k)
		stats = append(stats, ts)
	}
	if r.other != nil {
		keys = append(keys, OtherKey)
		stats = append(stats, r.other)
	}
	r.mu.RUnlock()

	snap := Snapshot{Templates: make([]TemplateSnapshot, 0, len(keys))}
	for i, k := range keys {
		ts := stats[i]
		lat := ts.latency.Snapshot()
		if lat.Count == 0 {
			continue // seeded, never observed
		}
		pred := ts.predLatency.Snapshot()
		pb := ts.predBound.Snapshot()
		ob := ts.obsBound.Snapshot()
		t := TemplateSnapshot{
			Key:              k,
			Queries:          lat.Count,
			Latency:          percentilesOf(lat),
			PredictedLatency: percentilesOf(pred),
			RowsScanned:      percentilesOf(ts.rows.Snapshot()),
			BytesScanned:     percentilesOf(ts.bytes.Snapshot()),
			PredictedBound:   percentilesOf(pb),
			ObservedBound:    percentilesOf(ob),
		}
		if m := lat.Mean(); m > 0 {
			t.PredictedOverObservedLatency = pred.Mean() / m
		}
		if m := ob.Mean(); m > 0 {
			t.PredictedOverObservedBound = pb.Mean() / m
		}
		snap.Templates = append(snap.Templates, t)
	}
	sort.Slice(snap.Templates, func(i, j int) bool {
		return snap.Templates[i].Key < snap.Templates[j].Key
	})
	return snap
}
