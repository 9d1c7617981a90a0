// Package exec implements BlinkDB-Go's query executor: scan → filter →
// group-by → weighted aggregate over block-oriented row sources. Every
// matching row contributes with weight 1/rate (its effective sampling
// rate), producing the unbiased estimates of §4.3; base tables have rate 1
// everywhere so exact execution is the same code path.
//
// Execution is row-budgeted: the block list is split into contiguous
// ranges of at least minPartialRows rows each (scanRanges) — a sample
// view's one resolution's delta at a time, so no range straddles a delta —
// each range is scanned into a mergeable Partial (one group map per range,
// zone-map pruning applied before any row is touched), and the partials
// are folded in partition-index order. Because the partition depends only
// on the blocks' row counts, the fold order — and hence every
// floating-point accumulation — is identical for any worker count:
// RunParallel(…, 8) returns bit-for-bit the same Result as
// RunParallel(…, 1). And because it is cut at every delta, a Chain that
// folds a view's deltas one step at a time folds the same partials, in the
// same order, as a scan of the whole view (§4.4). How the simulated
// cluster places and prices those blocks (ScanShards) is a separate,
// per-block partition the scan never consults.
//
// A block is the priced unit — pruned by its zones, counted by its bytes —
// and a window on a physical chunk. Within a range the kernels (vector.go)
// run over spans: as many adjacent surviving blocks of one chunk as share
// a zone verdict and a sampling-metadata run. Where spans are cut changes
// how fast a scan runs, never what it returns.
package exec

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"blinkdb/internal/sample"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/stats"
	"blinkdb/internal/storage"
	"blinkdb/internal/telemetry"
	"blinkdb/internal/types"
)

// maxPartials caps how many ranges a scan is split into, and is the
// pricing partition's range count (ScanShards). It is a fixed constant —
// NOT derived from the worker count — so that partial boundaries, and
// therefore float summation order, never depend on parallelism. The cap
// bounds per-scan group-map and merge overhead on tables past
// maxPartials × minPartialRows rows, where ranges grow instead.
const maxPartials = 256

// minPartialRows is the executor's unit of work: a scan range is closed
// once it holds at least this many rows. A Partial costs a group map, a
// merge and (past the first) a goroutine hand-off, so it must amortize
// them over enough rows; at the simulated cluster's ~300-row blocks one
// Partial per block spent more on that than on scanning. Throughput was
// flat between 8k and 16k rows per range, so this is a constant, not a
// knob — and like maxPartials it must never depend on the worker count.
const minPartialRows = 8192

// scanRanges splits a block list into the executor's contiguous scan
// ranges: a range closes once it holds max(minPartialRows, rows/maxPartials)
// rows, and blocks left over after the last full range join it — so a
// list shorter than two units is one range, and there are never more than
// maxPartials. The boundaries depend only on the blocks' row counts —
// never on workers, schedule or placement — which is the whole
// bit-identity argument: one Partial per range, folded in range order.
func scanRanges(blocks []*storage.Block) []storage.BlockRange {
	return appendRanges(nil, blocks, 0)
}

// appendRanges appends scanRanges(blocks), offset by off, to dst.
func appendRanges(dst []storage.BlockRange, blocks []*storage.Block, off int) []storage.BlockRange {
	if len(blocks) == 0 {
		return dst
	}
	total := 0
	for _, b := range blocks {
		total += b.N
	}
	target := max(minPartialRows, (total+maxPartials-1)/maxPartials)
	if dst == nil {
		dst = make([]storage.BlockRange, 0, max(total/target, 1))
	}
	first, lo, rows := len(dst), 0, 0
	for i, b := range blocks {
		if rows += b.NumRows(); rows >= target {
			dst = append(dst, storage.BlockRange{Lo: off + lo, Hi: off + i + 1})
			lo, rows = i+1, 0
		}
	}
	if len(dst) == first {
		return append(dst, storage.BlockRange{Lo: off, Hi: off + len(blocks)})
	}
	dst[len(dst)-1].Hi = off + len(blocks)
	return dst
}

// Input is a scannable row source: a table, whose rows carry their own
// sampling rates, or a window of a sample family's resolutions, whose rows
// carry their stratum frequencies (§3.1).
type Input struct {
	// Schema describes the rows.
	Schema *types.Schema
	// Blocks is the priced block list (what the cost model reads, too).
	Blocks []*storage.Block

	// A view's input (FromView, FromDelta) reads resolution view up to and
	// is answered at cap, its cap; Blocks hold the deltas of the
	// resolutions it adds, in order. All zero for a table.
	view   sample.View
	cap    int64
	deltas []delta

	// prunedFor is the plan state Blocks were already zone-pruned against
	// (see Pruned); a scan of that very plan skips its per-block re-check.
	prunedFor *planRuntime
}

// delta is one resolution's delta in a view input's Blocks: where it ends,
// and its cap, which its rows' stratum frequencies are raised to
// (stats.FreqKey).
type delta struct {
	end   int
	floor int64
}

// Pruned returns the input restricted to the blocks whose zone maps may
// satisfy p's predicate — the blocks a scan of p would read, which is also
// the list the cost model prices. The scan prunes as it goes either way;
// pruning up front just spares it checking every survivor a second time.
func (in Input) Pruned(p *Plan) Input {
	kept, _ := pruneBlocks(in.Blocks, p.rt.bounds)
	if len(kept) != len(in.Blocks) && in.deltas != nil {
		// Pruning moved the delta boundaries: record where they now fall.
		deltas := make([]delta, len(in.deltas))
		i, j := 0, 0
		for l, dl := range in.deltas {
			for ; i < dl.end; i++ {
				if j < len(kept) && kept[j] == in.Blocks[i] {
					j++
				}
			}
			deltas[l] = delta{j, dl.floor}
		}
		in.deltas = deltas
	}
	in.Blocks, in.prunedFor = kept, p.rt
	return in
}

// FromTable wraps a base table (or uniform-rate sample table) as an Input.
func FromTable(t *storage.Table) Input {
	return Input{Schema: t.Schema, Blocks: t.Blocks}
}

// FromView wraps a sample-family resolution as an Input: weights are
// derived per row from the view's cap and the row's stratum frequency.
func FromView(v sample.View) Input { return FromDelta(v, -1) }

// FromDelta wraps the blocks resolution v adds to resolution after of its
// family — the deltas after+1..v.Level, all of v when after is -1 — as the
// Input a Chain at resolution after extends by (§4.4).
func FromDelta(v sample.View, after int) Input {
	fam := v.Family
	in := Input{
		Schema: fam.Schema(),
		Blocks: v.Blocks()[prefix(fam, after):],
		view:   v,
		cap:    v.Cap(),
		deltas: make([]delta, 0, max(v.Level-after, 0)),
	}
	for l := after + 1; l <= v.Level; l++ {
		in.deltas = append(in.deltas, delta{prefix(fam, l) - prefix(fam, after), fam.Caps[l]})
	}
	return in
}

// prefix returns how many blocks resolutions 0..level of fam hold.
func prefix(fam *sample.Family, level int) int {
	if level < 0 {
		return 0
	}
	return len(fam.View(level).Blocks())
}

// weights returns how the input's class keys weigh: at the view's cap, or
// — a table — as the rows' own weights.
func (in Input) weights() stats.Weights { return stats.Weights{Cap: in.cap} }

// ranges returns the input's scan ranges: scanRanges over a table's blocks,
// and over a view's one delta at a time, so that no range straddles two —
// which is what makes a Chain's partials those of a direct scan.
func (in Input) ranges() []storage.BlockRange {
	if in.deltas == nil {
		return scanRanges(in.Blocks)
	}
	out := make([]storage.BlockRange, 0, len(in.deltas))
	lo := 0
	for _, dl := range in.deltas {
		out = appendRanges(out, in.Blocks[lo:dl.end], lo)
		lo = dl.end
	}
	return out
}

// AggPlan is a compiled aggregate.
type AggPlan struct {
	Kind  stats.AggKind
	Col   int // schema index; -1 for COUNT(*)
	P     float64
	Alias string
}

// Plan is a compiled query ready to run against inputs sharing a schema.
type Plan struct {
	Schema     *types.Schema
	Pred       types.Predicate
	GroupBy    []int
	GroupNames []string
	Aggs       []AggPlan
	Limit      int

	// rt caches the predicate's zone-pruning bounds and scan form. Compile
	// and WithPred set it; a Plan made any other way does not run.
	rt *planRuntime
}

// planRuntime is the precompiled hot-path state derived from Plan.Pred.
type planRuntime struct {
	// bounds are the conjunctive per-column intervals used for zone-map
	// pruning, flattened once per plan: the scan checks them per block.
	bounds []colBound
	// leaves are the predicate's comparison leaves when it is a pure
	// conjunction of them (nil otherwise) — the precondition for the
	// all-true zone shortcut (see zoneImpliesPred).
	leaves []*types.CmpPred
	// sel is the predicate as the columnar scan evaluates it (see
	// mergeIntervals).
	sel types.Predicate
}

func newPlanRuntime(pred types.Predicate) *planRuntime {
	if pred == nil {
		pred = types.TruePred{}
	}
	return &planRuntime{
		bounds: boundList(ColumnBounds(pred)),
		leaves: conjunctiveLeaves(pred),
		sel:    mergeIntervals(pred),
	}
}

// Compile resolves a parsed query against a schema.
func Compile(q *sqlparser.Query, schema *types.Schema) (*Plan, error) {
	p := &Plan{Schema: schema, Pred: types.TruePred{}, Limit: q.Limit}
	if q.Where != nil {
		pred, err := q.Where.Resolve(schema)
		if err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		p.Pred = pred
	}
	for _, g := range q.GroupBy {
		i, err := schema.MustIndex(g)
		if err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		p.GroupBy = append(p.GroupBy, i)
		p.GroupNames = append(p.GroupNames, strings.ToLower(g))
	}
	for _, a := range q.Aggs {
		ap := AggPlan{Kind: a.Kind, Col: -1, P: a.P, Alias: a.Alias}
		if a.Col != "" {
			i, err := schema.MustIndex(a.Col)
			if err != nil {
				return nil, fmt.Errorf("exec: %w", err)
			}
			ap.Col = i
		} else if a.Kind != stats.AggCount {
			return nil, fmt.Errorf("exec: %s requires a column", a.Kind)
		}
		p.Aggs = append(p.Aggs, ap)
	}
	if len(p.Aggs) == 0 {
		return nil, fmt.Errorf("exec: no aggregates")
	}
	p.rt = newPlanRuntime(p.Pred)
	return p, nil
}

// WithPred returns a copy of the plan with the predicate replaced (and its
// bounds and scan form rebuilt). Used by the §4.1.2 disjunction
// rewrite, which runs one sub-query per disjunct.
func (p *Plan) WithPred(pred types.Predicate) *Plan {
	cp := *p
	cp.Pred = pred
	cp.rt = newPlanRuntime(pred)
	return &cp
}

// Group is one output row.
type Group struct {
	// Key holds the GROUP BY values (empty for global aggregates).
	Key []types.Value
	// Estimates has one entry per aggregate, in plan order.
	Estimates []stats.Estimate
}

// KeyString renders the group key for display ("NY" or "NY/Win7").
func (g Group) KeyString() string {
	if len(g.Key) == 0 {
		return "(all)"
	}
	parts := make([]string, len(g.Key))
	for i, v := range g.Key {
		parts[i] = v.String()
	}
	return strings.Join(parts, "/")
}

// Result is the output of running a plan over one input.
type Result struct {
	// Groups are the output rows, sorted by key.
	Groups []Group
	// RowsScanned counts every row read from the input. Blocks eliminated
	// by zone-map pruning are never read and contribute nothing.
	RowsScanned int64
	// RowsMatched counts rows passing the predicate.
	RowsMatched int64
	// WeightedMatched is Σ 1/rate over matching rows — the
	// Horvitz–Thompson estimate of how many base-table rows match.
	WeightedMatched float64
	// MaxMatchedStratumFreq is the largest base-table stratum frequency
	// among matching rows (0 when rows carry no stratum metadata). A
	// sample resolution whose cap is ≥ this value contains EVERY
	// matching row — a census, hence an exact answer (§3.1).
	MaxMatchedStratumFreq int64
	// BytesScanned is the physical bytes behind the scanned (unpruned)
	// blocks.
	BytesScanned int64
	// Confidence used for the estimates.
	Confidence float64
}

func selectivity(matched, scanned int64) float64 {
	if scanned == 0 {
		return 0
	}
	return float64(matched) / float64(scanned)
}

// MaxAbsErr returns the worst CI half-width across groups and aggregates.
func (r *Result) MaxAbsErr() float64 {
	worst := 0.0
	for _, g := range r.Groups {
		for _, e := range g.Estimates {
			if e.Bound > worst {
				worst = e.Bound
			}
		}
	}
	return worst
}

// groupState accumulates one group during execution.
type groupState struct {
	key  []types.Value
	accs []*stats.Acc

	// batchRows stages this group's selected rows during one fold
	// (vector.go); it is drained and reset before the next.
	batchRows []int32
}

// newGroupState initialises a group of plan p with an empty key.
func newGroupState(p *Plan) *groupState {
	gs := &groupState{accs: make([]*stats.Acc, len(p.Aggs))}
	for ai, a := range p.Aggs {
		gs.accs[ai] = stats.NewAcc(a.Kind, a.P)
	}
	return gs
}

// Partial is the mergeable result of scanning one contiguous block range:
// per-group aggregate states plus the scan counters. Partials from
// disjoint ranges combine associatively through a Merger.
type Partial struct {
	// RowsScanned, RowsMatched, MaxMatchedStratumFreq and BytesScanned
	// mirror the same fields on Result, restricted to this partial's block
	// range. WeightedMatched is Result's as a tally — matching rows counted
	// by weight 1/rate — so it merges exactly, whatever the partition.
	RowsScanned           int64
	RowsMatched           int64
	WeightedMatched       stats.Tally
	MaxMatchedStratumFreq int64
	BytesScanned          int64

	// groups buckets group states by hashed GROUP BY key; each bucket
	// holds the (rare) hash-colliding groups.
	groups map[uint64][]*groupState
	// w is how the scanned input's class keys weigh (Input.weights).
	w stats.Weights
}

// zoneMayMatch reports whether a block's zone maps can intersect the
// plan's conjunctive bounds. Blocks without zones, and columns holding a
// NaN, are conservatively kept.
func zoneMayMatch(b *storage.Block, bounds []colBound) bool {
	for i := range bounds {
		cb := &bounds[i]
		// A NaN compares equal to everything: it never widens a zone (a
		// leading one pins it at [NaN, NaN]) yet passes =, <= and >= against
		// any constant, so the bracket of a column whose chunk holds one says
		// nothing about the block.
		if cb.col >= len(b.Zones) || !b.Chunk.Cols[cb.col].NaNFree {
			continue
		}
		if !zoneOverlaps(b, cb) {
			return false
		}
	}
	return true
}

// runPartial scans blocks [lo, hi) of the input into a mergeable Partial,
// with precompiled plan state — a join scan's (joinRuntime.rt) when jr is
// non-nil: each span is widened with the dimension columns before the
// scan — and the scan scratch one worker reuses across its ranges. Zone-map
// pruning is folded into the scan: blocks whose zones cannot satisfy the
// predicate's bounds are skipped before any row is read, so they count in
// neither RowsScanned nor BytesScanned.
func runPartial(p *Plan, rt *planRuntime, in Input, lo, hi int,
	jr *joinRuntime, sc *colScratch) *Partial {

	pt := &Partial{groups: make(map[uint64][]*groupState), w: in.weights()}
	lo, hi = max(lo, 0), min(hi, len(in.Blocks))
	pt.scanBlocks(p, rt, in, lo, hi, jr, sc)
	return pt
}

// scanBlocks scans blocks [lo, hi) of the input into the partial as spans:
// each block is pruned, counted and classified on its own, and neighbours
// that continue one another in a chunk under the same classification are
// handed to the kernels as one run of rows.
func (pt *Partial) scanBlocks(p *Plan, rt *planRuntime, in Input, lo, hi int,
	jr *joinRuntime, sc *colScratch) {

	var open span // open.d is nil when no span is open
	var meta metaCursor
	scan := func() {
		switch {
		case open.d == nil:
		case jr != nil:
			pt.scanSpan(p, rt, jr.widen(open, sc), sc)
		default:
			pt.scanSpan(p, rt, open, sc)
		}
		open.d = nil
	}
	// A view's rows are keyed by the cap of the delta that holds them
	// (floor; 0 for a table's), the delta before end.
	dl, end, floor := 0, len(in.Blocks), int64(0)
	for ; dl < len(in.deltas); dl++ {
		if end, floor = in.deltas[dl].end, in.deltas[dl].floor; end > lo {
			break
		}
	}
	prune := len(rt.bounds) > 0 && in.prunedFor != rt
	for i := lo; i < hi; i++ {
		b := in.Blocks[i]
		for i >= end {
			dl++
			end, floor = in.deltas[dl].end, in.deltas[dl].floor
		}
		if prune && !zoneMayMatch(b, rt.bounds) {
			scan() // pruned: never read, never counted
			continue
		}
		pt.BytesScanned += b.Bytes
		if b.N == 0 {
			continue
		}
		if next := spanOf(b, rt, floor, &meta); open.d != nil && open.extends(next) {
			open.hi = next.hi
		} else {
			scan()
			open = next
		}
	}
	scan()
}

// Merger folds partials into the merged group map incrementally, as each
// arrives at its partition index, instead of materializing the full
// partial list first. The fold order is ALWAYS partition-index order: a
// partial delivered out of order is buffered until every lower index has
// been folded, then drained — so float accumulation, and hence the
// Result, is bit-identical to a sequential fold for any arrival order and
// worker count. Folded partials are released immediately, which caps the
// merger's live memory at the merged group map plus the out-of-order
// window, rather than one group map per range — the difference that
// matters at very high group cardinalities.
//
// A merger consumes the partials delivered to it: the first one's group
// map becomes the merged map and later first-seen groups move in as they
// are — same values, same fold order, no copies — so a partial is folded
// once and not read after. Finalizing reads the merged state and changes
// nothing.
type Merger struct {
	p    *Plan
	next int        // lowest index not yet folded
	wait []*Partial // out-of-order buffer, indexed by partition index
	got  []bool     // which indices have arrived (nil partials are legal)

	// w weighs the merged classes at Finish: the weights of the input the
	// partials were scanned from.
	w stats.Weights

	merged                map[uint64][]*groupState
	rowsScanned           int64
	rowsMatched           int64
	weightedMatched       stats.Tally
	maxMatchedStratumFreq int64
	bytesScanned          int64
}

// NewMerger creates a merger expecting partials at indices [0, n).
func NewMerger(p *Plan, n int) *Merger {
	m := &Merger{p: p, merged: make(map[uint64][]*groupState)}
	m.expect(n)
	return m
}

// expect opens the merger to n more partials, delivered at indices [0, n)
// and folded after everything it holds: how a Chain adds a delta's ranges.
func (m *Merger) expect(n int) {
	m.next, m.wait, m.got = 0, make([]*Partial, n), make([]bool, n)
}

// Add delivers the partial for one partition index (nil for an empty
// range) and folds every contiguous ready prefix. Add is NOT
// goroutine-safe; concurrent producers serialize Add calls (the merge
// work is tiny next to the scans that produced the partials).
func (m *Merger) Add(idx int, pt *Partial) {
	if m.got[idx] {
		return // duplicate delivery: first one wins
	}
	m.got[idx] = true
	m.wait[idx] = pt
	for m.next < len(m.wait) && m.got[m.next] {
		m.fold(m.wait[m.next])
		m.wait[m.next] = nil // release: folded partials don't accumulate
		m.next++
	}
}

// fold merges one partial (nil = empty range) into the running state.
func (m *Merger) fold(pt *Partial) {
	if pt == nil {
		return
	}
	m.w = pt.w
	m.rowsScanned += pt.RowsScanned
	m.rowsMatched += pt.RowsMatched
	m.bytesScanned += pt.BytesScanned
	if pt.MaxMatchedStratumFreq > m.maxMatchedStratumFreq {
		m.maxMatchedStratumFreq = pt.MaxMatchedStratumFreq
	}
	if len(m.merged) == 0 {
		// No row has matched yet: the partial's groups and weights move in.
		m.merged, m.weightedMatched = pt.groups, pt.WeightedMatched
		return
	}
	m.weightedMatched.Merge(&pt.WeightedMatched)
	for h, bucket := range pt.groups {
		for _, gs := range bucket {
			dst, fresh := findMerged(m.merged, h, gs)
			if fresh {
				continue // first occurrence: moved into the fold
			}
			for ai, acc := range dst.accs {
				acc.Merge(gs.accs[ai])
			}
		}
	}
}

// flush folds any remaining delivered partials, still in index order.
func (m *Merger) flush() {
	for ; m.next < len(m.wait); m.next++ {
		if m.got[m.next] {
			m.fold(m.wait[m.next])
			m.wait[m.next] = nil
		}
	}
}

// result finalizes the merged state at confidence, its classes weighed by
// w. It reads the state and changes nothing, so one state may be finalized
// at several caps, concurrently.
func (m *Merger) result(confidence float64, w stats.Weights) *Result {
	if confidence <= 0 || confidence >= 1 {
		confidence = sqlparser.DefaultConfidence
	}
	res := &Result{
		Confidence:            confidence,
		RowsScanned:           m.rowsScanned,
		RowsMatched:           m.rowsMatched,
		WeightedMatched:       m.weightedMatched.Sum(w),
		MaxMatchedStratumFreq: m.maxMatchedStratumFreq,
		BytesScanned:          m.bytesScanned,
	}
	merged := m.merged
	if len(m.p.GroupBy) == 0 && len(merged) == 0 {
		// A global aggregate with zero matches still yields one empty group.
		merged = map[uint64][]*groupState{types.HashSeed: {newGroupState(m.p)}}
	}
	finalize(m.p, res, merged, w)
	return res
}

// findMerged locates the merged group matching gs's key; on first sight
// it inserts gs itself (fresh=true).
func findMerged(merged map[uint64][]*groupState, h uint64, gs *groupState) (dst *groupState, fresh bool) {
	for _, have := range merged[h] {
		if groupKeysEqual(have.key, gs.key) {
			return have, false
		}
	}
	merged[h] = append(merged[h], gs)
	return gs, true
}

func groupKeysEqual(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !types.GroupEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// finalize converts merged group states, their classes weighed by w, into
// sorted result groups. It only reads the group states.
func finalize(p *Plan, res *Result, merged map[uint64][]*groupState, w stats.Weights) {
	z := stats.ZForConfidence(res.Confidence) // an Erfinv: once, not per cell
	for _, bucket := range merged {
		for _, gs := range bucket {
			g := Group{Key: gs.key, Estimates: make([]stats.Estimate, len(gs.accs))}
			for i, acc := range gs.accs {
				g.Estimates[i] = acc.EstimateZ(res.Confidence, z, w)
			}
			res.Groups = append(res.Groups, g)
		}
	}
	slices.SortFunc(res.Groups, func(a, b Group) int {
		if c := compareKeys(a.Key, b.Key); c != 0 {
			return c
		}
		// Distinct keys can still compare equal across kinds (Int(1) vs
		// Float(1)); break the tie on the encoded key so ordering never
		// depends on map iteration.
		return strings.Compare(encodeKey(a.Key), encodeKey(b.Key))
	})
	if p.Limit > 0 && len(res.Groups) > p.Limit {
		res.Groups = res.Groups[:p.Limit]
	}
}

func encodeKey(key []types.Value) string {
	var b strings.Builder
	for _, v := range key {
		b.WriteString(v.Key())
		b.WriteByte('\x1f')
	}
	return b.String()
}

// Sched is single-valued: it and RunParallelSchedCtx's parameter exist
// only because benchmark/ passes one; a benchmark-archetype PR removes
// both. Node affinity is a pricing concept, carried by ScanShards.
type Sched uint8

// SchedNodeAffine is the paper's §2.2.1 schedule: node-local scan tasks.
const SchedNodeAffine Sched = 0

// ScanShards is the PRICING partition of a block list: up to maxPartials
// contiguous per-block-count ranges and the per-node shards that own them
// under the node-affine schedule. The ELP runtime uses it to attribute
// scan locality in the cluster model (elp.PriceBlockRead) and the locality
// ablation (abl-affinity) reports its hit rate. It models how the
// cluster places work, not how this process scans: the executor's own
// partition is scanRanges, and changing one never moves the other.
func ScanShards(blocks []*storage.Block) ([]storage.BlockRange, []storage.NodeShard) {
	return storage.PartitionBlocksByNode(blocks, maxPartials)
}

// RunParallel executes the plan over the input using up to workers
// goroutines. The block list is split into contiguous ranges whose
// boundaries depend only on the blocks' row counts; each range produces
// one Partial, folded in partition-index order — so the Result is
// bit-identical for every workers value (1, 8, or more workers than
// ranges).
func RunParallel(p *Plan, in Input, confidence float64, workers int) *Result {
	res, _ := runRanges(context.Background(), p, p.rt, in, confidence, workers, nil, nil)
	return res
}

// RunParallelSchedCtx is RunParallel with a cancellation context and a
// telemetry span under which the scan records per-range child spans and
// the merge phase (sp may be nil). Workers re-check ctx between scan
// ranges, so a cancelled context stops the scan within one range's worth
// of work; a context cancelled before the call scans nothing. On
// cancellation the partial merge is abandoned and ctx.Err() is returned;
// a nil error guarantees the Result is the same bit-identical answer
// RunParallel produces.
func RunParallelSchedCtx(ctx context.Context, p *Plan, in Input, confidence float64, workers int, _ Sched, sp *telemetry.Span) (*Result, error) {
	return runRanges(ctx, p, p.rt, in, confidence, workers, nil, sp)
}

// runRanges is the shared scan driver for plain and join execution: the
// input's ranges scanned into a fresh merger (scanInto), then finalized. A
// single-range scan runs inline on the caller: no goroutine, no mutex, and
// the Result is finalized from the Partial's own group states.
// Cancellation is checked per range; once ctx is cancelled no further
// range is scanned and ctx.Err() is returned with a nil Result; under a
// background context the error is therefore always nil.
func runRanges(ctx context.Context, p *Plan, rt *planRuntime, in Input, confidence float64, workers int,
	jr *joinRuntime, sp *telemetry.Span) (*Result, error) {

	merger := NewMerger(p, 0)
	if err := scanInto(ctx, merger, p, rt, in, workers, jr, sp); err != nil {
		return nil, err
	}
	return finishSpan(merger, confidence, merger.w, sp), nil
}

// finishSpan finalizes the merger's state under a "merge" span of sp.
func finishSpan(m *Merger, confidence float64, w stats.Weights, sp *telemetry.Span) *Result {
	var mergeSp *telemetry.Span
	if sp != nil {
		mergeSp = sp.Child("merge")
	}
	m.flush()
	res := m.result(confidence, w)
	mergeSp.End()
	return res
}

// scanInto scans the input's ranges into m, to be folded after everything
// m already holds. Each range yields one Partial, delivered at its
// partition index and folded in that order, so every float accumulation —
// and hence the Result — is identical across worker counts. Span
// bookkeeping (sp non-nil) adds one child span per range; with sp nil the
// scan performs no telemetry work at all. A non-nil error is ctx's: the
// scan stopped between ranges and m holds part of the input.
func scanInto(ctx context.Context, m *Merger, p *Plan, rt *planRuntime, in Input, workers int,
	jr *joinRuntime, sp *telemetry.Span) error {

	if err := ctx.Err(); err != nil {
		return err
	}
	ranges := in.ranges()
	if workers > len(ranges) {
		workers = len(ranges)
	}
	// Partials stream into the merger at their partition index as each
	// range completes; the fold order is index order regardless of which
	// worker finishes first, so the Result stays bit-identical while no
	// more than the out-of-order window of partials is ever retained.
	m.expect(len(ranges))
	m.w = in.weights()
	if workers <= 1 {
		var scanSp *telemetry.Span
		if sp != nil {
			scanSp = sp.Child(fmt.Sprintf("partials ranges=%d", len(ranges)))
		}
		defer scanSp.End()
		sc := getScratch()
		defer putScratch(sc)
		for i, r := range ranges {
			if err := ctx.Err(); err != nil {
				return err
			}
			m.Add(i, runPartial(p, rt, in, r.Lo, r.Hi, jr, sc))
		}
		return nil
	}
	var mu sync.Mutex // serializes m.Add across workers
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := getScratch() // per-worker: buffers are not shared
			defer putScratch(sc)
			for ctx.Err() == nil {
				u := int(next.Add(1)) - 1
				if u >= len(ranges) {
					return
				}
				var unitSp *telemetry.Span
				if sp != nil {
					unitSp = sp.Child(fmt.Sprintf("range %d blocks=%d", u, ranges[u].Len()))
				}
				pt := runPartial(p, rt, in, ranges[u].Lo, ranges[u].Hi, jr, sc)
				mu.Lock()
				m.Add(u, pt)
				mu.Unlock()
				unitSp.End()
			}
		}()
	}
	wg.Wait()
	// Workers that stopped early left the partial set incomplete: folding
	// it would silently yield a wrong (under-scanned) answer.
	return ctx.Err()
}

func compareKeys(a, b []types.Value) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		if c := types.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	if len(a) < len(b) {
		return -1
	}
	return 0
}

// MergeResults combines partial results from disjoint disjunct sub-queries
// (§4.1.2): groups with equal keys have their estimates summed for
// COUNT/SUM and combined conservatively for AVG/QUANTILE (point estimates
// weighted by effective rows; variances added for sums).
func MergeResults(p *Plan, parts []*Result) *Result {
	if len(parts) == 1 {
		return parts[0]
	}
	out := &Result{Confidence: parts[0].Confidence}
	type slot struct {
		key []types.Value
		est []stats.Estimate
	}
	merged := map[string]*slot{}
	var order []string
	for _, part := range parts {
		out.RowsScanned += part.RowsScanned
		out.RowsMatched += part.RowsMatched
		out.WeightedMatched += part.WeightedMatched
		out.BytesScanned += part.BytesScanned
		for _, g := range part.Groups {
			key := ""
			for _, v := range g.Key {
				key += v.Key() + "\x1f"
			}
			s, ok := merged[key]
			if !ok {
				s = &slot{key: g.Key, est: make([]stats.Estimate, len(g.Estimates))}
				copy(s.est, g.Estimates)
				merged[key] = s
				order = append(order, key)
				continue
			}
			for i := range s.est {
				s.est[i] = mergeEstimate(p.Aggs[i].Kind, s.est[i], g.Estimates[i])
			}
		}
	}
	sort.Strings(order)
	for _, key := range order {
		s := merged[key]
		out.Groups = append(out.Groups, Group{Key: s.key, Estimates: s.est})
	}
	return out
}

func mergeEstimate(kind stats.AggKind, a, b stats.Estimate) stats.Estimate {
	out := a
	out.Rows = a.Rows + b.Rows
	out.EffRows = a.EffRows + b.EffRows
	out.Exact = a.Exact && b.Exact
	switch kind {
	case stats.AggCount, stats.AggSum:
		out.Point = a.Point + b.Point
		out.StdErr = sqrtSumSq(a.StdErr, b.StdErr)
	case stats.AggAvg, stats.AggQuantile:
		// Weighted combination by effective rows.
		wa, wb := a.EffRows, b.EffRows
		if wa+wb == 0 {
			wa, wb = 1, 1
		}
		out.Point = (a.Point*wa + b.Point*wb) / (wa + wb)
		out.StdErr = sqrtSumSq(a.StdErr*wa/(wa+wb), b.StdErr*wb/(wa+wb))
	}
	z := stats.ZForConfidence(a.Confidence)
	out.Bound = z * out.StdErr
	return out
}

func sqrtSumSq(a, b float64) float64 {
	return math.Sqrt(a*a + b*b)
}
