// Package blinkdb is a Go implementation of BlinkDB (Agarwal et al.,
// EuroSys 2013): a sampling-based approximate query engine that answers
// SQL aggregation queries with bounded errors and bounded response times.
//
// The engine maintains multi-dimensional, multi-resolution stratified
// samples chosen by an optimization framework over the query-template
// workload, and at runtime selects the sample family and resolution that
// satisfy a query's ERROR WITHIN / WITHIN ... SECONDS bounds.
//
// Blocks are striped over the simulated cluster's nodes, and the cluster
// model prices that placement shard-affine — straggler nodes bound the
// scan, and merging partial aggregates across nodes pays a network
// fan-in. The in-process scan is partitioned by rows, not by placement;
// results are bit-identical for any worker count.
//
// Queries flow through an explicit prepare → execute pipeline with a
// template-keyed plan cache (Config.PlanCacheSize, on by default):
// BlinkDB workloads repeat the same query templates with different
// constants, so the compiled plan, the smallest-sample probes and the
// Error-Latency Profile — the dominant cost of a bounded query — are
// computed once per template and reused. Cached state belongs to one
// catalog version, catalog-wide: a sample refresh, maintenance rebuild or
// table load on any table bumps the version, and the next query starts
// from empty caches and re-prepares, so stale probes are never served
// (an engine with several tables drops the cached state of all of them).
// Result.Explanation reports cache=hit|miss; Engine.Stats exposes hit
// rates and probe counts. With the cache disabled the engine behaves
// exactly as before, bit for bit.
//
// Above the plan cache sits a cross-query RESULT cache
// (Config.ResultCacheSize, on by default): an exact replay — same
// template AND same constants/bounds — is served from memory without
// probing or scanning, and N concurrent cold replays of one query
// collapse into a single execution shared by all (singleflight). Answers
// live as long as the catalog version, like plan-cache entries, and are
// copied on return (a serving layer, through Engine.Answer, shares the
// entry's read-only served form). A loaded table never changes and every
// load bumps the one catalog version, so an answer is served until it is
// evicted or the catalog changes, with no age limit. Result.Explanation
// reports result=hit|miss|shared; disabling the cache (ResultCacheSize <
// 0) restores the execute-every-query pipeline bit for bit.
//
// # Observability
//
// The engine carries a query-lifecycle telemetry layer
// (internal/telemetry), always on. Every completed query is recorded
// against its normalized template in mergeable log-bucketed histograms:
// wall-clock and predicted (simulated-cluster) latency, rows/bytes
// scanned, and the ELP's projected error half-width against the
// half-width actually reported. The same record keeps the template's one
// cost estimate, an EWMA of its wall seconds, which the serving layer
// prices admission from (Engine.TemplateWallSeconds).
// Engine.Telemetry folds them into per-template p50/p95/p99 snapshots —
// the calibration substrate for adaptive ELP recalibration. Prefixing a
// query with EXPLAIN ANALYZE executes it normally (sharing all cache
// state with the plain form) and additionally returns a span tree in
// Result.Trace: normalize → cache lookups → probes → per-range scan
// partials → merge → materialize, each with monotonic durations and
// cache markers. Engine.QueryTraced returns the structured trace for
// programmatic use (e.g. Chrome trace-event export via
// telemetry.WriteChrome). Telemetry never changes answers: recording a
// query reads its response and writes only histograms.
//
// Tables and samples are stored as columnar chunks (internal/colstore):
// per-column typed slices with null bitmaps plus the sampling metadata as
// runs, which is what lets cached samples be scanned at memory bandwidth
// (§5). The paper's block — what the cluster model places, prices and
// prunes — is a window on a chunk. The scan picks its kernels per span of
// blocks from encoding and zone metadata, never changing answers — every
// dispatch rule below is purely physical, pinned against a naive
// reference evaluator in internal/exec's tests. Sorted or low-cardinality columns
// (stratification columns are sorted by construction; sample builders
// hint them) are run-length encoded at build time, and predicates over
// them evaluate once per run instead of once per row. Zone maps classify
// each block three ways: all-false blocks are skipped, all-true blocks
// (zones prove a purely conjunctive predicate for every row, requiring
// NaN-free columns and magnitudes below 2^53) skip predicate evaluation
// and batch-aggregate whole group runs, and mixed blocks evaluate the
// predicate column-at-a-time into a selection bitmap. A join is the same
// scan over a wider chunk: each fact chunk gains its rows' dimension
// columns, looked up by key in an index built once when the query is
// prepared, and a match column, and the predicate AND match = 1 selects.
// So a dimension table's join key must be unique; a query joining one
// whose key repeats is refused.
//
// # Serving
//
// The engine is serving-ready as a library: QueryCtx threads a
// context.Context through the planner into the executor's worker loops,
// so a disconnected client stops paying for its scan between block
// ranges, and QueryStream runs a query as a streaming-refinement session
// — one StreamUpdate per sample resolution along the §4.4 delta chain,
// each a complete answer with bounds, ending in a Final update
// bit-identical to Query's; Answer and Stream are the same runs for a
// caller that parsed the query itself. cmd/blinkdb-server wraps those in HTTP/JSON
// (NDJSON and SSE streaming) with admission control priced by each
// template's cost estimate: overload is shed with 429 + Retry-After before
// any scanning happens, which the server's admitted/shed/queue-cancelled
// ledger (server.Metrics) makes auditable.
//
// # Persistence
//
// With Config.DataDir set, the expensive warm state survives restarts
// (internal/blockfile, persistence.go). Stratified sample families
// persist as columnar segment files — fixed-width little-endian
// layouts, per-section CRC32C checksums, zone maps and sampling
// metadata — keyed by a build signature over table content, sampling
// options and engine knobs; a warm boot mmaps them back as zero-copy
// column views instead of re-stratifying. SnapshotWarmup additionally
// writes a warmup file: the SQL of the queries that warmed the plan and
// result caches, and each template's cost estimate (the telemetry
// registry's EWMA of observed wall seconds, which admission prices by);
// RestoreWarmup runs those queries again on boot, so the first query
// after a restart answers from the same steady state the previous process
// died in — bit-identical, cache markers and simulated latencies
// included — and every restored entry is computed against the samples
// actually loaded. Everything under DataDir is a cache of reproducible
// state: corruption, truncation or a changed build is detected by
// checksum, build signature and format version, and degrades to a cold
// rebuild with the reason in PersistenceNotes — deleting the directory
// costs a cold boot, never correctness. Engines with loaded
// segments must be released with Close.
//
// A minimal session:
//
//	eng := blinkdb.Open(blinkdb.Config{})
//	load := eng.CreateTable("sessions",
//		blinkdb.Col("city", blinkdb.String),
//		blinkdb.Col("sessiontime", blinkdb.Float))
//	load.Append("NY", 12.5)
//	load.Close()
//	eng.CreateSamples("sessions", blinkdb.SampleOptions{
//		BudgetFraction: 0.5,
//		Templates:      []blinkdb.Template{{Columns: []string{"city"}, Weight: 1}},
//	})
//	res, _ := eng.Query(
//		"SELECT AVG(sessiontime) FROM sessions GROUP BY city " +
//			"ERROR WITHIN 10% AT CONFIDENCE 95%")
//	for _, row := range res.Rows {
//		fmt.Println(row.Group, row.Cells[0].Value, "±", row.Cells[0].Bound)
//	}
package blinkdb

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"blinkdb/internal/blockfile"
	"blinkdb/internal/catalog"
	"blinkdb/internal/cluster"
	"blinkdb/internal/elp"
	"blinkdb/internal/maintenance"
	"blinkdb/internal/optimizer"
	"blinkdb/internal/sample"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/telemetry"
	"blinkdb/internal/types"
)

// ColumnType enumerates supported column types.
type ColumnType uint8

// Column types.
const (
	Int ColumnType = iota
	Float
	String
	Bool
)

// ColumnDef declares one table column.
type ColumnDef struct {
	Name string
	Type ColumnType
}

// Col is shorthand for a ColumnDef.
func Col(name string, t ColumnType) ColumnDef { return ColumnDef{Name: name, Type: t} }

// Config configures an Engine. The zero value simulates the paper's
// 100-node evaluation cluster at physical scale 1.
type Config struct {
	// Nodes in the simulated cluster (default 100, the paper's setup).
	Nodes int
	// Workers sizes the executor's scan worker pool. 0 (default) uses
	// min(8, GOMAXPROCS): a simulated node's 8 cores, but never more
	// goroutines than this host can run. 1 runs every scan on the
	// calling goroutine; §4.1.1's candidate counts run there whatever the
	// value. Query results are bit-identical for every value: the executor
	// partitions scans by the blocks' row counts and merges partial
	// aggregates in partition-index order.
	Workers int
	// Scale maps stored bytes to logical bytes for latency modelling
	// (default 1; experiments use 1e4-1e6 to emulate TB-scale tables). It
	// also sizes the priced block — the unit the cluster model places on
	// a node, prices and prunes, a window on a physical chunk: tables and
	// samples are cut so one block stands for ≈256 MB of logical data
	// (HDFS-style blocks), between 2 and 8192 rows.
	Scale float64
	// Seed drives all sampling randomness (default 1).
	Seed int64
	// PlanCacheSize caps how many query templates keep their prepared
	// state — compiled plan, sample probes, Error-Latency Profile —
	// across queries (the hot-path amortization for template-heavy
	// workloads). 0 (the default) selects 256 templates; a negative value
	// disables the cache entirely, restoring the prepare-every-query
	// pipeline whose answers and latencies are bit-identical to the
	// cached path for identical queries. Entries live as long as the one
	// catalog version, so RefreshSamples/Maintain immediately invalidate
	// every template, catalog-wide.
	PlanCacheSize int
	// ResultCacheSize caps how many completed ANSWERS are kept keyed by
	// (template, full parameter vector): an exact replay of a recent
	// query is served straight from memory — no probe, no scan — and
	// concurrent cold replays of one query collapse into a single
	// execution (singleflight). 0 (the default) selects 1024 answers; a
	// negative value disables the cache, restoring the execute-every-
	// query pipeline bit-identically (no result= markers, same answers
	// and latencies). Served answers live as long as the one catalog
	// version, like plan-cache entries — RefreshSamples/Maintain
	// invalidate them immediately, catalog-wide — and are copied on
	// return, so callers can never corrupt the cache.
	// Unlike a plan-cache hit, which reuses template-level probe state to
	// answer NEW constants, a result-cache hit requires the parameters to
	// match exactly and replays the identical answer.
	ResultCacheSize int
	// CacheTables places base tables in simulated cluster memory.
	CacheTables bool
	// DataDir enables persistence when set: CreateSamples writes built
	// families as columnar segment files under it and loads them back
	// on matching warm boots instead of re-stratifying, and
	// SnapshotWarmup/RestoreWarmup persist the queries behind the plan
	// and result caches and replay them after a restart. Empty (the
	// default) keeps the engine fully in-memory. Everything under DataDir
	// is a cache of reproducible state: deleting it costs a cold boot,
	// never correctness.
	DataDir string
}

func (c Config) normalize() Config {
	if c.Nodes <= 0 {
		c.Nodes = 100
	}
	if c.Workers == 0 {
		c.Workers = min(cluster.PaperConfig().CoresPerNode, runtime.GOMAXPROCS(0))
	}
	if c.Workers < 0 {
		c.Workers = 1
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	// Negative cache sizes pass through: elp.Options maps them to off.
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	if c.ResultCacheSize == 0 {
		c.ResultCacheSize = 1024
	}
	return c
}

// Engine is a BlinkDB instance: a catalog of tables and samples plus the
// runtime that answers bounded queries over them.
type Engine struct {
	cfg  Config
	cat  *catalog.Catalog
	clus *cluster.Cluster
	rt   *elp.Runtime
	tele *telemetry.Registry

	// samples maps a lower-cased table name to its *tableSamples.
	samples sync.Map

	// persistMu guards persistNotes, the fall-back audit trail behind
	// PersistenceNotes, and each tableSamples' sig and rep; it serializes
	// SnapshotWarmup, RestoreWarmup and the persisting half of
	// CreateSamples. A goroutine holding a table's tableSamples.mu may
	// take persistMu; one holding persistMu takes no tableSamples.mu.
	persistMu    sync.Mutex
	persistNotes []string
	// openSegs are the mmap'd segment files backing warm-loaded sample
	// families; their mappings must outlive the families' column views.
	openSegs []*blockfile.Segment
}

// Close releases resources the engine holds on the filesystem — the
// mmap'd segment files backing warm-loaded samples. The engine must
// not be queried after Close: column views into the unmapped segments
// become invalid. Engines without Config.DataDir hold nothing and may
// skip Close.
func (e *Engine) Close() error {
	var first error
	for _, s := range e.openSegs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.openSegs = nil
	return first
}

// tableSamples is one table's sample recipe: what CreateSamples resolved
// its options to, so that Maintain and RefreshSamples rebuild families the
// way they were first built, plus the state they carry between calls.
type tableSamples struct {
	// mu makes CreateSamples, Maintain and RefreshSamples on the table run
	// one at a time; it guards maint.
	mu sync.Mutex
	// maint holds the recipe — the optimizer configuration: caps,
	// resolutions, candidate width, budget and the sample build layout —
	// with the drift baseline and the refresh cursor. Nil until
	// CreateSamples succeeds.
	maint *maintenance.Maintainer
	// sig and rep are the build signature and report CreateSamples
	// persisted the families under (rep nil: nothing was persisted);
	// SnapshotWarmup re-persists the current families under them.
	// persistMu guards both.
	sig uint64
	rep *SampleReport
}

// samplesOf returns the table's sample record, creating an empty one.
func (e *Engine) samplesOf(table string) *tableSamples {
	rec, _ := e.samples.LoadOrStore(strings.ToLower(table), &tableSamples{})
	return rec.(*tableSamples)
}

// Open creates an engine.
func Open(cfg Config) *Engine {
	cfg = cfg.normalize()
	clus := cluster.New(cluster.PaperConfig().WithNodes(cfg.Nodes))
	cat := catalog.New()
	tele := telemetry.NewRegistry()
	rt := elp.New(cat, clus, elp.Options{
		Scale:           cfg.Scale,
		Workers:         cfg.Workers,
		PlanCacheSize:   cfg.PlanCacheSize,
		ResultCacheSize: cfg.ResultCacheSize,
	})
	return &Engine{cfg: cfg, cat: cat, clus: clus, rt: rt, tele: tele}
}

// Loader streams rows into a new table.
type Loader struct {
	eng     *Engine
	table   *storage.Table
	builder *storage.Builder
	schema  *types.Schema
	place   storage.Placement
	row     types.Row // Append's conversion buffer; the builders copy out of it
	err     error
}

// CreateTable registers a new table and returns a loader for its rows.
func (e *Engine) CreateTable(name string, cols ...ColumnDef) *Loader {
	tcols := make([]types.Column, len(cols))
	for i, c := range cols {
		var k types.Kind
		switch c.Type {
		case Int:
			k = types.KindInt
		case Float:
			k = types.KindFloat
		case String:
			k = types.KindString
		case Bool:
			k = types.KindBool
		}
		tcols[i] = types.Column{Name: c.Name, Kind: k}
	}
	schema := types.NewSchema(tcols...)
	tab := storage.NewTable(name, schema)
	place := storage.OnDisk
	if e.cfg.CacheTables {
		place = storage.InMemory
	}
	return &Loader{
		eng:     e,
		table:   tab,
		builder: storage.NewBuilder(tab, 0, e.cfg.Nodes, place), // re-cut by Close
		schema:  schema,
		place:   place,
		row:     make(types.Row, schema.Len()),
	}
}

// Append adds one row; values must match the declared column order.
// Accepted Go types: int/int32/int64/float32/float64/string/bool/nil.
func (l *Loader) Append(values ...any) error {
	if l.err != nil {
		return l.err
	}
	if len(values) != l.schema.Len() {
		l.err = fmt.Errorf("blinkdb: row has %d values, schema %s has %d",
			len(values), l.table.Name, l.schema.Len())
		return l.err
	}
	for i, v := range values {
		val, err := toValue(v)
		if err != nil {
			l.err = fmt.Errorf("blinkdb: column %s: %w", l.schema.Columns[i].Name, err)
			return l.err
		}
		l.row[i] = val
	}
	l.builder.Append(l.row, storage.RowMeta{Rate: 1})
	return nil
}

// Close finalizes the table and registers it with the engine, re-cut so
// each priced block stands for ≈256 MB of logical data at the configured
// Scale. A table registered under the same name before is replaced, and
// its samples and sample recipe go with it. A closed loader is done:
// Append and Close return an error after it, and the registered table —
// and the samples built on it — stay as they are.
func (l *Loader) Close() error {
	if l.err != nil {
		return l.err
	}
	l.builder.Finish()
	if l.table.NumRows() > 0 {
		l.table = storage.Recut(l.table, l.eng.blockRows(l.table), l.eng.cfg.Nodes, l.place)
	}
	l.eng.cat.Register(l.table)
	l.eng.samples.Delete(strings.ToLower(l.table.Name))
	l.err = fmt.Errorf("blinkdb: table %s: loader already closed", l.table.Name)
	return nil
}

// blockRows sizes blocks to ≈256 MB logical each at the engine's scale:
// every table's and every sample's priced block.
func (e *Engine) blockRows(t *storage.Table) int {
	avgRow := math.Max(1, float64(t.Bytes())/float64(t.NumRows()))
	r := int(256e6 / (e.cfg.Scale * avgRow))
	if r < 2 {
		r = 2
	}
	if r > 8192 {
		r = 8192
	}
	return r
}

func toValue(v any) (types.Value, error) {
	switch x := v.(type) {
	case nil:
		return types.Null(), nil
	case int:
		return types.Int(int64(x)), nil
	case int32:
		return types.Int(int64(x)), nil
	case int64:
		return types.Int(x), nil
	case float32:
		return types.Float(float64(x)), nil
	case float64:
		return types.Float(x), nil
	case string:
		return types.Str(x), nil
	case bool:
		return types.Bool(x), nil
	default:
		return types.Null(), fmt.Errorf("unsupported value type %T", v)
	}
}

// Template declares one workload query template for sample creation.
type Template struct {
	// Columns is the WHERE ∪ GROUP BY column set of the template.
	Columns []string
	// Weight is the template's frequency/importance in (0, 1].
	Weight float64
}

// SampleOptions controls CreateSamples. CreateSamples resolves them, with
// the engine's Seed, Nodes and block size, into the table's sample recipe,
// which Maintain and RefreshSamples build by until CreateSamples runs on
// the table again.
type SampleOptions struct {
	// BudgetFraction is the storage budget as a fraction of the base
	// table size (the paper evaluates 0.5, 1.0 and 2.0). Default 0.5.
	BudgetFraction float64
	// K is the largest stratification cap (default scales to table size:
	// max(100, rows/100), emulating the paper's K = 100,000 at 5.5B rows).
	K int64
	// Resolutions per family (default 3).
	Resolutions int
	// CapRatio between successive resolutions (default 2).
	CapRatio float64
	// UniformFraction sizes the always-built uniform family as a
	// fraction of the table (default 0.1).
	UniformFraction float64
	// Templates is the workload; required.
	Templates []Template
}

// SampleReport summarises what CreateSamples built.
type SampleReport struct {
	// Families lists the built families: column sets ("[city]",
	// "uniform") with their storage bytes.
	Families []FamilyInfo
	// TotalBytes is the cumulative sample storage.
	TotalBytes int64
	// BudgetBytes was the allowed budget.
	BudgetBytes int64
	// Optimal is true when the exact MILP solver ran.
	Optimal bool
}

// FamilyInfo describes one built family.
type FamilyInfo struct {
	// Columns is the stratification set; empty means uniform.
	Columns []string
	// StorageBytes is the family's physical footprint.
	StorageBytes int64
	// Rows is the row count of the largest resolution.
	Rows int64
	// Resolutions is the number of nested sample sizes.
	Resolutions int
}

// CreateSamples runs the §3.2 optimization over the declared templates and
// physically builds the chosen stratified families plus a uniform family.
// The options it resolved become the table's sample recipe, replacing
// any earlier one: Maintain re-solves and RefreshSamples re-draws by it.
func (e *Engine) CreateSamples(table string, opts SampleOptions) (*SampleReport, error) {
	entry, err := e.cat.Lookup(table)
	if err != nil {
		return nil, err
	}
	if len(opts.Templates) == 0 {
		return nil, fmt.Errorf("blinkdb: CreateSamples requires query templates")
	}
	if opts.BudgetFraction <= 0 {
		opts.BudgetFraction = 0.5
	}
	if opts.UniformFraction <= 0 {
		opts.UniformFraction = 0.1
	}
	if opts.K <= 0 {
		opts.K = int64(math.Max(100, float64(entry.Table.NumRows())/100))
	}
	cfg := optimizer.Config{
		K:           opts.K,
		CapRatio:    opts.CapRatio,
		Resolutions: opts.Resolutions,
		BudgetBytes: int64(float64(entry.Table.Bytes()) * opts.BudgetFraction),
		Workers:     e.cfg.Workers,
		Build: sample.BuildConfig{
			RowsPerBlock: e.blockRows(entry.Table),
			Nodes:        e.cfg.Nodes,
			Place:        storage.InMemory, // samples live in the cache
			Seed:         e.cfg.Seed,
		},
	}
	rec := e.samplesOf(table)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	// Warm path: when DataDir holds families persisted by an earlier
	// run of this exact build (signature over table content, templates,
	// budget and seed), load them instead of re-stratifying. Sampling
	// is seeded-deterministic, so the loaded families are the ones the
	// cold path below would produce.
	var sig uint64
	if e.cfg.DataDir != "" {
		sig = e.sampleSignature(entry, opts, cfg.Build.RowsPerBlock)
		if rep, ok := e.loadPersistedSamples(table, rec, sig); ok {
			rec.maint = maintenance.NewMaintainer(e.cat, table, cfg)
			return rep, nil
		}
	}
	plan, err := optimizer.ChooseSamples(entry.Table, templateSpecs(opts.Templates), cfg)
	if err != nil {
		return nil, err
	}
	fams, err := optimizer.BuildFamilies(entry.Table, plan, cfg, opts.UniformFraction)
	if err != nil {
		return nil, err
	}
	rep := &SampleReport{BudgetBytes: cfg.BudgetBytes, Optimal: plan.Optimal}
	for _, f := range fams {
		if err := e.cat.AddFamily(table, f); err != nil {
			return nil, err
		}
		rep.Families = append(rep.Families, FamilyInfo{
			Columns:      f.Phi.Columns(),
			StorageBytes: f.StorageBytes(),
			Rows:         f.StorageRows(),
			Resolutions:  f.Resolutions(),
		})
		rep.TotalBytes += f.StorageBytes()
	}
	rec.maint = maintenance.NewMaintainer(e.cat, table, cfg)
	e.persistMu.Lock()
	defer e.persistMu.Unlock()
	rec.rep = nil
	if e.cfg.DataDir != "" && e.persistSamples(table, sig, fams, rep) {
		rec.sig, rec.rep = sig, rep
	}
	return rep, nil
}

// templateSpecs is the workload as the optimizer takes it.
func templateSpecs(tpls []Template) []optimizer.TemplateSpec {
	specs := make([]optimizer.TemplateSpec, len(tpls))
	for i, t := range tpls {
		specs[i] = optimizer.TemplateSpec{
			Columns: types.NewColumnSet(t.Columns...),
			Weight:  t.Weight,
		}
	}
	return specs
}

// Cell is one aggregate output with its error bar.
type Cell struct {
	// Name is the aggregate label (alias or canonical form).
	Name string
	// Value is the point estimate.
	Value float64
	// Bound is the CI half-width at the result's confidence.
	Bound float64
	// RelErr is Bound/|Value| (0 when exact).
	RelErr float64
	// Exact marks answers with no sampling error.
	Exact bool
	// Rows is the matching sample rows behind the estimate.
	Rows int64
}

// ResultRow is one output group.
type ResultRow struct {
	// Group is the rendered GROUP BY key ("(all)" for global aggregates).
	Group string
	// Cells hold the aggregates in SELECT order.
	Cells []Cell
}

// Result is a query outcome.
type Result struct {
	// Rows are the output groups, sorted by key.
	Rows []ResultRow
	// Confidence of all error bars.
	Confidence float64
	// SimLatencySeconds is the latency the simulated cluster attributes
	// to this query (probes + sample read).
	SimLatencySeconds float64
	// Level is the sample resolution that served the answer: -1 when any
	// disjunct ran on the base table, otherwise the max resolution level
	// across disjuncts.
	Level int
	// SampleDescription says which sample answered the query, e.g.
	// "S([city], K=1000)" or "base table".
	SampleDescription string
	// Explanation is the planner's reasoning (EXPLAIN-style); with the
	// plan cache enabled it includes a cache=hit|miss marker, and with
	// the result cache enabled a result=hit|miss|shared marker.
	Explanation string
	// PlanCache reports the plan-cache outcome for this query: "hit",
	// "miss", or "" when the cache is disabled — or when the answer came
	// from the result cache, which never consults the plan pipeline.
	PlanCache string
	// ResultCache reports the result-cache outcome: "hit" (an exact
	// replay served from memory), "miss" (this query executed and cached
	// the answer), "shared" (a concurrent identical query's execution
	// supplied it), or "" when the result cache is disabled.
	ResultCache string
	// RowsScanned and RowsMatched describe the work done.
	RowsScanned int64
	RowsMatched int64
	// PredictedBound is the ELP-projected worst-group CI half-width at
	// the chosen resolution (worst across disjuncts; 0 for exact
	// execution) — compare against the cells' Bound to judge the
	// profile's calibration.
	PredictedBound float64
	// Trace is the rendered query-lifecycle span tree, filled only for
	// EXPLAIN ANALYZE queries (empty otherwise). Use QueryTraced for the
	// structured form.
	Trace string
}

// MaxRelErr returns the worst relative error across all cells.
func (r *Result) MaxRelErr() float64 {
	worst := 0.0
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			if c.RelErr > worst && !math.IsInf(c.RelErr, 1) {
				worst = c.RelErr
			}
		}
	}
	return worst
}

// Query parses, plans and executes one query. Queries without bounds run
// exactly on the base table; bounded queries run on the best sample. An
// EXPLAIN ANALYZE prefix additionally fills Result.Trace with the
// rendered query-lifecycle span tree (cache state is shared with the
// plain form of the query, so a warm replay shows the warm path).
func (e *Engine) Query(sql string) (*Result, error) {
	return e.QueryCtx(context.Background(), sql)
}

// QueryCtx is Query with cancellation: a ctx that is cancelled before the
// call returns immediately without planning or scanning, and a ctx
// cancelled mid-scan stops the executor's workers between block ranges.
// Cancelled queries return ctx.Err() (or a wrapped form satisfying
// errors.Is) and count toward EngineStats.Cancelled.
func (e *Engine) QueryCtx(ctx context.Context, sql string) (*Result, error) {
	res, _, err := e.query(ctx, sql, nil)
	return res, err
}

// QueryTraced is Query with the structured span tree returned alongside
// the result: the trace is always captured, whether or not the query has
// an EXPLAIN ANALYZE prefix, and its root spans what the caller waits
// for — parse, normalize, the run, the result. Use it to feed
// telemetry.WriteChrome or to walk span durations programmatically; plain
// Query keeps the zero-overhead untraced path.
func (e *Engine) QueryTraced(sql string) (*Result, *telemetry.Trace, error) {
	return e.query(context.Background(), sql, telemetry.New("query"))
}

func (e *Engine) query(ctx context.Context, sql string, tr *telemetry.Trace) (*Result, *telemetry.Trace, error) {
	st, err := parse(sql, tr)
	if err != nil {
		return nil, nil, err
	}
	u, err := e.Answer(ctx, st)
	if err != nil {
		return nil, nil, err
	}
	return u.Result, st.tr, nil
}

// Statement is one parsed query ready for its one run: the AST with
// whatever bounds its producer set, the key and parameters Normalize
// derived from it — once — the wall time spent producing it (charged to
// the query in Engine.Telemetry) and the trace of a traced or EXPLAIN
// ANALYZE query. The SQL-text entry points make one per call; a serving
// layer that must see the query before it runs makes its own.
type Statement struct {
	// Key is the normalized template key: what admission prices
	// (TemplateWallSeconds) and telemetry records the statement under.
	Key     string
	q       *sqlparser.Query
	params  []types.Value
	spent   time.Duration
	tr      *telemetry.Trace
	private bool // the SQL-text entry points': Results the caller may modify
}

// NewStatement normalizes q, which must not change afterwards; began is
// when the caller started producing q (before it parsed). The Results of
// its run are READ-ONLY: a result-cache hit's is the cache entry's own,
// which is what lets a serving layer answer one with a lookup and a write.
func NewStatement(q *sqlparser.Query, began time.Time) Statement {
	return newStatement(q, began, nil)
}

func newStatement(q *sqlparser.Query, began time.Time, tr *telemetry.Trace) Statement {
	if tr == nil && q.Analyze {
		tr = telemetry.New("query")
	}
	nsp := tr.Root().Child("normalize")
	key, params := sqlparser.Normalize(q)
	nsp.End()
	return Statement{Key: key, q: q, params: params, spent: time.Since(began), tr: tr}
}

// parse is where SQL text becomes a Statement — the only parse any entry
// point of this package performs — under the caller's trace, if any.
func parse(sql string, tr *telemetry.Trace) (Statement, error) {
	began := time.Now()
	psp := tr.Root().Child("parse")
	q, err := sqlparser.Parse(sql)
	psp.End()
	if err != nil {
		return Statement{}, err
	}
	st := newStatement(q, began, tr)
	st.private = true
	return st, nil
}

// StreamUpdate is one refinement of a streaming query session: a
// complete Result at one sample resolution. Seq numbers updates from 0;
// exactly one update has Final set, and it is bit-identical (including
// latencies and cache markers) to what Query would have returned for the
// same SQL against the same engine state.
type StreamUpdate struct {
	// Result is the full answer at this refinement's resolution.
	Result *Result
	// Level is the sample resolution that served it (-1 = base table).
	Level int
	// Seq numbers refinements from 0 within the session.
	Seq int
	// Final marks the session's last, authoritative answer.
	Final bool
	wire  []byte // a shared served Result's encoding, from its cache entry
}

// QueryStream executes sql as a streaming-refinement session: emit is
// called once per refinement in increasing-resolution order, ending with
// exactly one Final update. Sessions that cannot refine — exact queries,
// result-cache hits, answers shared from a concurrent identical query,
// or a probe already at the final resolution — emit a single Final
// update, so emit always runs at least once on success. An error from
// emit aborts the session and is returned; ctx cancellation behaves as
// in QueryCtx, checked between refinements and inside scans.
func (e *Engine) QueryStream(ctx context.Context, sql string, emit func(StreamUpdate) error) error {
	st, err := parse(sql, nil)
	if err != nil {
		return err
	}
	return e.Stream(ctx, st, emit)
}

// Stream is QueryStream for a Statement.
func (e *Engine) Stream(ctx context.Context, st Statement, emit func(StreamUpdate) error) error {
	u, err := e.run(ctx, st, emit)
	if err != nil {
		return err
	}
	return emit(u)
}

// Answer is QueryCtx for a Statement: the final update of a session that
// streams nothing.
func (e *Engine) Answer(ctx context.Context, st Statement) (StreamUpdate, error) {
	return e.run(ctx, st, nil)
}

// run is the one path under every entry point: it returns the session's
// final update, after passing any pre-final refinements to mid (nil:
// stream none). The trace's root and the Engine.Telemetry clock stop when
// the final Result is ready, not when its consumer is done with it, and
// the telemetry clock pauses while mid runs: the wall seconds a template
// is observed at — and its cost estimate, which admission prices by —
// are the engine's, never a slow stream reader's.
func (e *Engine) run(ctx context.Context, st Statement, mid func(StreamUpdate) error) (StreamUpdate, error) {
	started := time.Now()
	var paused time.Duration // spent in mid
	q, tr := st.q, st.tr
	u := StreamUpdate{Final: true}
	var emit func(*elp.Response, int) error
	if mid != nil {
		emit = func(resp *elp.Response, level int) error {
			res := buildResult(q, resp)
			res.Trace = tr.Render() // the tree so far; empty unless EXPLAIN ANALYZE
			u.Seq++
			t := time.Now()
			err := mid(StreamUpdate{Result: res, Level: level, Seq: u.Seq - 1})
			paused += time.Since(t)
			return err
		}
	}
	resp, err := e.rt.Run(ctx, q, st.Key, st.params, tr, emit)
	if err != nil {
		tr.Finish()
		return StreamUpdate{}, err
	}
	rsp := tr.Root().Child("build result")
	u.Result, u.wire = st.result(resp)
	rsp.End()
	u.Level = u.Result.Level
	tr.Finish()
	if q.Analyze {
		u.Result.Trace = tr.Render()
	}
	e.tele.Observe(st.Key, observationFor(resp, (st.spent+time.Since(started)-paused).Seconds()))
	return u, nil
}

// observationFor folds one completed response into a telemetry
// Observation. Predicted latency is the cluster simulator's seconds (a
// different clock from wall time — the ratio is a per-template
// calibration constant); the bound pair is same-units.
func observationFor(resp *elp.Response, wallSeconds float64) telemetry.Observation {
	o := telemetry.Observation{
		WallSeconds:      wallSeconds,
		PredictedSeconds: resp.SimLatency,
		// A result-cache hit (or a singleflight share of one execution)
		// scanned nothing this time around; only executed queries feed
		// the scan-shaped histograms.
		Executed: resp.ResultCache != "hit" && resp.ResultCache != "shared",
	}
	if !o.Executed {
		return o // the registry keeps nothing else of it
	}
	o.RowsScanned, o.BytesScanned = resp.Result.RowsScanned, resp.Result.BytesScanned
	o.ObservedBound = resp.Result.MaxAbsErr()
	for _, d := range resp.Decisions {
		if d.PredictedBound > o.PredictedBound {
			o.PredictedBound = d.PredictedBound
		}
	}
	return o
}

// buildResult maps an elp response onto the public Result shape.
func buildResult(q *sqlparser.Query, resp *elp.Response) *Result {
	out := &Result{
		Confidence:        resp.Confidence,
		SimLatencySeconds: resp.SimLatency,
		RowsScanned:       resp.Result.RowsScanned,
		RowsMatched:       resp.Result.RowsMatched,
		PlanCache:         resp.Cache,
		ResultCache:       resp.ResultCache,
	}
	var expl, desc []string
	for _, d := range resp.Decisions {
		expl = append(expl, d.Reason)
		if d.UsedBase {
			desc = append(desc, "base table")
			out.Level = -1
		} else {
			desc = append(desc, d.View.String())
			if out.Level >= 0 && d.View.Level > out.Level {
				out.Level = d.View.Level
			}
		}
		if d.PredictedBound > out.PredictedBound {
			out.PredictedBound = d.PredictedBound
		}
	}
	out.Explanation = strings.Join(expl, " | ")
	out.SampleDescription = strings.Join(desc, " | ")
	for _, g := range resp.Result.Groups {
		row := ResultRow{Group: g.KeyString()}
		for i, est := range g.Estimates {
			name := ""
			if i < len(q.Aggs) {
				name = q.Aggs[i].Alias
			}
			re := est.RelErr()
			row.Cells = append(row.Cells, Cell{
				Name:   name,
				Value:  est.Point,
				Bound:  est.Bound,
				RelErr: re,
				Exact:  est.Exact,
				Rows:   est.Rows,
			})
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Telemetry folds the engine's per-template histograms into a snapshot:
// p50/p95/p99 latency (wall-clock and simulated), rows/bytes scanned,
// and predicted-vs-observed error half-width per template. Safe for
// concurrent use with Query.
func (e *Engine) Telemetry() telemetry.Snapshot {
	return e.tele.Snapshot()
}

// EngineStats is a snapshot of the engine's serving counters: plan
// executions and probes, prepares, plan- and result-cache outcomes,
// cancellations and answers by serving level (see elp.Stats for each).
type EngineStats = elp.Stats

// Stats returns the engine's cumulative serving counters, mutually
// consistent (one lock). Safe for concurrent use with Query.
func (e *Engine) Stats() EngineStats { return e.rt.Stats() }

// TemplateWallSeconds returns the cost estimate of the given normalized
// template key: an EWMA (α = 0.3) of the wall seconds its completed
// queries took, or the estimate RestoreWarmup brought back when none has
// completed since. False when it has neither. The serving layer prices
// admission with it before any planning happens.
func (e *Engine) TemplateWallSeconds(key string) (float64, bool) {
	return e.tele.ObservedWallSeconds(key)
}

// Tables lists registered table names.
func (e *Engine) Tables() []string { return e.cat.Tables() }

// TableRows returns the row count of a table.
func (e *Engine) TableRows(name string) (int64, error) {
	entry, err := e.cat.Lookup(name)
	if err != nil {
		return 0, err
	}
	return entry.Table.NumRows(), nil
}

// RefreshSamples re-draws one sample family with fresh randomness (§4.5's
// background replacement, exposed as an explicit step) by the recipe
// CreateSamples resolved. Refreshes rotate: the k-th call on a table
// re-draws family (k−1) mod n of its n families, in catalog order, each
// with a seed of its own. The cursor lives in memory only: an engine that
// warm-boots its samples from DataDir starts again at the first family.
// Returns the refreshed family's column list, or ok=false when the table
// has no samples — no family, or CreateSamples never ran on it. A refresh
// and a Maintain pass on one table run one at a time.
func (e *Engine) RefreshSamples(table string) (columns []string, ok bool, err error) {
	if _, err := e.cat.Lookup(table); err != nil {
		return nil, false, err
	}
	rec := e.samplesOf(table)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.maint == nil {
		return nil, false, nil
	}
	phi, ok, err := rec.maint.Refresh()
	if err != nil || !ok {
		return nil, ok, err
	}
	return phi.Columns(), true, nil
}

// MaintainReport describes what a maintenance pass did.
type MaintainReport struct {
	// DataDrift and WorkloadDrift are the measured total-variation
	// distances against the last observed statistics (0 on first run).
	DataDrift     float64
	WorkloadDrift float64
	// Resolved is true when the optimization was re-run.
	Resolved bool
	// Built and Dropped list the column sets changed.
	Built, Dropped [][]string
}

// MaintainOptions controls a maintenance pass (§3.2.3, §4.5). Everything
// else a pass needs — K, resolutions, candidate width, budget, block size
// — is the table's sample recipe, which CreateSamples resolved.
type MaintainOptions struct {
	// Templates is the current workload (required).
	Templates []Template
	// ChurnFraction is r in constraint (5): the storage share of
	// existing samples that may be rebuilt/dropped. Default 1; negative
	// leaves the re-solve unconstrained.
	ChurnFraction float64
	// Force re-solves even when drift is below thresholds.
	Force bool
}

// Maintain runs one maintenance pass over a table: measure data/workload
// drift against the previous pass, and when it exceeds the 10% thresholds
// (or Force is set) re-solve the sample-selection problem under the churn
// constraint and apply the resulting build/drop diff, building new
// families by the recipe CreateSamples resolved. It returns an error for a
// table CreateSamples never ran on. Passes and RefreshSamples calls on one
// table run one at a time.
func (e *Engine) Maintain(table string, opts MaintainOptions) (*MaintainReport, error) {
	entry, err := e.cat.Lookup(table)
	if err != nil {
		return nil, err
	}
	if len(opts.Templates) == 0 {
		return nil, fmt.Errorf("blinkdb: Maintain requires query templates")
	}
	if opts.ChurnFraction == 0 {
		opts.ChurnFraction = 1
	}
	rec := e.samplesOf(table)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	m := rec.maint
	if m == nil {
		return nil, fmt.Errorf("blinkdb: Maintain: table %s has no samples (run CreateSamples first)", table)
	}
	specs := templateSpecs(opts.Templates)
	var cols []string
	seen := map[string]bool{}
	for _, t := range opts.Templates {
		for _, c := range t.Columns {
			lc := strings.ToLower(c)
			if !seen[lc] {
				seen[lc] = true
				cols = append(cols, lc)
			}
		}
	}

	snap, err := maintenance.TakeSnapshot(entry.Table, cols, specs)
	if err != nil {
		return nil, err
	}
	rep := &MaintainReport{}
	if last := m.Last(); last != nil {
		rep.DataDrift = maintenance.DataDrift(last, snap)
		rep.WorkloadDrift = maintenance.WorkloadDrift(last, snap)
	}
	needs := m.NeedsResolve(snap) || opts.Force
	m.Observe(snap)
	if !needs {
		return rep, nil
	}
	diff, err := m.Resolve(specs, opts.ChurnFraction)
	if err != nil {
		return nil, err
	}
	if err := m.Apply(diff); err != nil {
		return nil, err
	}
	rep.Resolved = true
	for _, phi := range diff.Build {
		rep.Built = append(rep.Built, phi.Columns())
	}
	for _, phi := range diff.Drop {
		rep.Dropped = append(rep.Dropped, phi.Columns())
	}
	return rep, nil
}
