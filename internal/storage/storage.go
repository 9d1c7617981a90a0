// Package storage provides the block-oriented table store underlying
// BlinkDB-Go. A Table is a bag of Blocks; each block holds a contiguous
// run of rows, carries per-row effective sampling rates (1.0 for base
// tables), and has a physical placement: the simulated cluster node it
// lives on and whether it is resident in memory or on disk.
//
// This mirrors the paper's HDFS layout (§2.2.1 "Storage optimization" and
// Fig. 4): samples are split into many small blocks spread across nodes,
// and multi-resolution samples map to non-overlapping block sets.
package storage

import (
	"fmt"
	"sort"

	"blinkdb/internal/colstore"
	"blinkdb/internal/types"
)

// Layout is single-valued: it and NewBuilderLayout exist only because
// benchmark/ calls them; a benchmark-archetype PR removes both.
type Layout uint8

// ColumnarLayout is the one block layout (internal/colstore).
const ColumnarLayout Layout = 1

// Placement says where a block physically resides.
type Placement uint8

const (
	// OnDisk blocks are read at disk bandwidth.
	OnDisk Placement = iota
	// InMemory blocks are read at memory bandwidth.
	InMemory
)

// String renders the placement.
func (p Placement) String() string {
	if p == InMemory {
		return "memory"
	}
	return "disk"
}

// RowMeta carries per-row sampling metadata used for the §4.3 bias
// correction. Base-table rows have Rate 1 and StratumFreq 0.
type RowMeta struct {
	// Rate is the effective sampling rate in (0, 1] for rows whose rate
	// is fixed at build time (uniform samples, base tables).
	Rate float64
	// StratumFreq, when positive, records F(φ,T,x): the base-table
	// frequency of this row's stratum. Stratified-family rows derive
	// their per-resolution rate as min(1, K/StratumFreq) at query time,
	// because the same physical row serves several resolutions with
	// different caps (non-overlapping delta storage, Fig. 4).
	StratumFreq int64
}

// Zone is a per-block min/max summary of one column (a zone map). Blocks
// whose zone cannot intersect a predicate's bounds are skipped entirely —
// this is how the §3.1 clustered layout ("records with the same or
// consecutive x values are stored contiguously") turns into I/O savings.
type Zone struct {
	// Min and Max bound the column's values within the block.
	Min, Max types.Value
	// Valid is false until the first row is recorded.
	Valid bool
}

// Extend widens the zone to include v.
func (z *Zone) Extend(v types.Value) {
	if !z.Valid {
		z.Min, z.Max, z.Valid = v, v, true
		return
	}
	if types.Compare(v, z.Min) < 0 {
		z.Min = v
	}
	if types.Compare(v, z.Max) > 0 {
		z.Max = v
	}
}

// Block is a contiguous run of rows with shared placement, stored as
// per-column typed slices with null bitmaps and per-block rate and
// stratum-frequency arrays (internal/colstore). Readers outside the
// executor's vectorized scan use the accessor methods (NumRows, RowAt,
// MetaAt, ValueAt, RowKey).
type Block struct {
	// ID is unique within a Table.
	ID int
	// Col is the columnar payload.
	Col *colstore.Data
	// Zones[i] summarises column i across the block's rows.
	Zones []Zone
	// Node is the cluster node the block is assigned to.
	Node int
	// Place is the storage tier.
	Place Placement
	// Bytes is the serialized size used by the cost model.
	Bytes int64
}

// NumRows returns the row count.
func (b *Block) NumRows() int { return b.Col.N }

// RowAt materialises row i (fresh per call, safe to retain).
func (b *Block) RowAt(i int) types.Row { return b.Col.Row(i) }

// MetaAt returns row i's sampling metadata.
func (b *Block) MetaAt(i int) RowMeta {
	return RowMeta{Rate: b.Col.RateAt(i), StratumFreq: b.Col.FreqAt(i)}
}

// ValueAt returns the value of column col in row i without materialising
// the row.
func (b *Block) ValueAt(i, col int) types.Value { return b.Col.Cols[col].Value(i) }

// RowKey renders the projection of row i onto the given schema indices —
// types.RowKey without materialising the row.
func (b *Block) RowKey(i int, idx []int) string { return b.Col.RowKey(i, idx) }

// Table is a named collection of blocks sharing a schema.
type Table struct {
	Name   string
	Schema *types.Schema
	Blocks []*Block

	rows  int64
	bytes int64
}

// NewTable creates an empty table.
func NewTable(name string, schema *types.Schema) *Table {
	return &Table{Name: name, Schema: schema}
}

// AddBlock appends a block, assigning its ID, and updates totals.
func (t *Table) AddBlock(b *Block) {
	b.ID = len(t.Blocks)
	t.Blocks = append(t.Blocks, b)
	t.rows += int64(b.NumRows())
	t.bytes += b.Bytes
}

// NumRows returns the total number of rows.
func (t *Table) NumRows() int64 { return t.rows }

// Bytes returns the total serialized size.
func (t *Table) Bytes() int64 { return t.bytes }

// Scan calls fn for every row (with its metadata) in block order. Rows
// are materialised fresh per call (safe to retain).
func (t *Table) Scan(fn func(r types.Row, m RowMeta) bool) {
	for _, b := range t.Blocks {
		for i, n := 0, b.NumRows(); i < n; i++ {
			if !fn(b.RowAt(i), b.MetaAt(i)) {
				return
			}
		}
	}
}

// BlockRange is a half-open range [Lo, Hi) of positions in a block list —
// the unit of work the parallel executor hands to one worker.
type BlockRange struct {
	Lo, Hi int
}

// Len returns the number of blocks in the range.
func (r BlockRange) Len() int { return r.Hi - r.Lo }

// PartitionBlocks splits n blocks into at most maxParts contiguous,
// near-equal ranges. The partition depends only on n and maxParts — never
// on how many workers will consume it — so an executor that folds
// per-range partial aggregates in range order produces bit-identical
// results for any worker count (floating-point accumulation order is
// fixed by the partition, not the scheduling).
func PartitionBlocks(n, maxParts int) []BlockRange {
	if n <= 0 {
		return nil
	}
	parts := maxParts
	if parts <= 0 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([]BlockRange, 0, parts)
	base, rem := n/parts, n%parts
	lo := 0
	for i := 0; i < parts; i++ {
		sz := base
		if i < rem {
			sz++
		}
		out = append(out, BlockRange{Lo: lo, Hi: lo + sz})
		lo += sz
	}
	return out
}

// NodeShard is the unit of locality-aware scheduling: the set of scan
// ranges owned by one cluster node. A shard-affine executor hands each
// shard to one worker, so a worker reads (mostly) blocks that live on
// its node — the paper's HDFS layout of many small sample blocks striped
// across the cluster (§2.2.1) turns into per-node scan tasks instead of
// node-blind ones.
type NodeShard struct {
	// Node is the owning cluster node.
	Node int
	// Ranges indexes into the companion []BlockRange slice, ascending.
	// Every range appears in exactly one shard.
	Ranges []int
	// Bytes is the total physical size of the shard's ranges.
	Bytes int64
	// LocalBytes is the portion of Bytes residing on the owning node. A
	// range whose blocks straddle nodes makes LocalBytes < Bytes; the
	// difference is read across the network.
	LocalBytes int64
}

// PartitionBlocksByNode splits blocks into the SAME contiguous ranges as
// PartitionBlocks(len(blocks), maxParts) and groups them into per-node
// shards. Each range is owned by the node holding the most of its bytes
// (ties break to the lowest node id); a shard is one node's ranges, and
// shards are returned in ascending node order.
//
// The range boundaries deliberately never depend on placement: they are
// exactly PartitionBlocks's, so an executor that merges per-range
// partials in range order produces results bit-identical to the
// node-blind schedule — affinity changes WHICH worker scans a range,
// never how the ranges (and hence float accumulation) are laid out.
func PartitionBlocksByNode(blocks []*Block, maxParts int) ([]BlockRange, []NodeShard) {
	ranges := PartitionBlocks(len(blocks), maxParts)
	if len(ranges) == 0 {
		return nil, nil
	}
	shardIdx := make(map[int]int) // node → index into shards
	var shards []NodeShard
	var perNode map[int]int64 // reused per range
	for ri, r := range ranges {
		var total int64
		if perNode == nil {
			perNode = make(map[int]int64)
		} else {
			for k := range perNode {
				delete(perNode, k)
			}
		}
		for bi := r.Lo; bi < r.Hi; bi++ {
			b := blocks[bi]
			perNode[b.Node] += b.Bytes
			total += b.Bytes
		}
		// Owner: most bytes, ties to the lowest node id. The selection is
		// by comparison, so map iteration order cannot affect it.
		owner, ownerBytes, first := 0, int64(0), true
		for node, bytes := range perNode {
			if first || bytes > ownerBytes || (bytes == ownerBytes && node < owner) {
				owner, ownerBytes, first = node, bytes, false
			}
		}
		si, ok := shardIdx[owner]
		if !ok {
			si = len(shards)
			shardIdx[owner] = si
			shards = append(shards, NodeShard{Node: owner})
		}
		shards[si].Ranges = append(shards[si].Ranges, ri)
		shards[si].Bytes += total
		shards[si].LocalBytes += ownerBytes
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].Node < shards[j].Node })
	return ranges, shards
}

// LocalityHitRate returns the fraction of shard bytes a node-affine
// schedule reads locally (Σ LocalBytes / Σ Bytes); 1 when the shards
// carry no bytes (nothing to read remotely).
func LocalityHitRate(shards []NodeShard) float64 {
	var total, local int64
	for _, s := range shards {
		total += s.Bytes
		local += s.LocalBytes
	}
	if total == 0 {
		return 1
	}
	return float64(local) / float64(total)
}

// RemoteBytes returns the bytes a node-affine schedule must read across
// the network: Σ (Bytes − LocalBytes) over the shards.
func RemoteBytes(shards []NodeShard) int64 {
	var remote int64
	for _, s := range shards {
		remote += s.Bytes - s.LocalBytes
	}
	return remote
}

// EstimateRowBytes computes the approximate serialized size of a row:
// 8 bytes per numeric value, len+2 per string, 1 per bool/null. The cost
// model only needs relative sizes, so this is deliberately simple.
func EstimateRowBytes(r types.Row) int64 {
	var n int64
	for _, v := range r {
		switch v.Kind {
		case types.KindInt, types.KindFloat:
			n += 8
		case types.KindString:
			n += int64(len(v.S)) + 2
		default:
			n++
		}
	}
	return n
}

// Builder accumulates rows into fixed-size blocks, striping them
// round-robin across numNodes cluster nodes (HDFS-style block spread).
// Each flushed block is encoded into per-column typed slices
// (internal/colstore).
type Builder struct {
	table        *Table
	rowsPerBlock int
	numNodes     int
	place        Placement

	curCol   *colstore.Builder
	curZones []Zone
	curByte  int64
	nextTgt  int

	// Encoding knobs forwarded to each block's colstore.Builder (which is
	// created lazily per block): sortedCols hints sorted/low-cardinality
	// columns, noRLE pins the pre-RLE plain typed encodings. Both are
	// purely physical — logical content is identical either way.
	sortedCols []int
	noRLE      bool
}

// NewBuilder creates a builder for the given table. rowsPerBlock controls
// block granularity; numNodes the round-robin striping width.
func NewBuilder(table *Table, rowsPerBlock, numNodes int, place Placement) *Builder {
	if rowsPerBlock <= 0 {
		rowsPerBlock = 8192
	}
	if numNodes <= 0 {
		numNodes = 1
	}
	return &Builder{table: table, rowsPerBlock: rowsPerBlock, numNodes: numNodes, place: place}
}

// NewBuilderLayout is NewBuilder; see Layout.
func NewBuilderLayout(table *Table, rowsPerBlock, numNodes int, place Placement, _ Layout) *Builder {
	return NewBuilder(table, rowsPerBlock, numNodes, place)
}

// HintSortedColumns marks columns as sorted (or low-cardinality-clustered)
// for the columnar encoder, lowering its run-length-encoding threshold for
// them. Sample builders hint the stratification columns, which are sorted
// within a stratum by construction.
func (b *Builder) HintSortedColumns(cols ...int) {
	b.sortedCols = append(b.sortedCols, cols...)
	if b.curCol != nil {
		b.curCol.HintSorted(cols...)
	}
}

// DisableRLE pins the plain typed encodings (no run-length encoding) —
// the benchmark and equivalence suites use it to build the pre-RLE
// physical design from identical input.
func (b *Builder) DisableRLE() {
	b.noRLE = true
	if b.curCol != nil {
		b.curCol.DisableRLE()
	}
}

// numCols returns the block width: the schema's width when known, else
// the first appended row's.
func (b *Builder) numCols(r types.Row) int {
	if b.table.Schema != nil {
		return b.table.Schema.Len()
	}
	return len(r)
}

// Append adds one row with its sampling metadata.
func (b *Builder) Append(r types.Row, m RowMeta) {
	if b.curCol == nil {
		b.curCol = colstore.NewBuilder(b.numCols(r))
		if b.noRLE {
			b.curCol.DisableRLE()
		}
		if len(b.sortedCols) > 0 {
			b.curCol.HintSorted(b.sortedCols...)
		}
	}
	b.curCol.Append(r, m.Rate, m.StratumFreq)
	if b.curZones == nil {
		// Zones are sized from the schema, not the first row, so a narrow
		// leading row cannot silently disable zone maintenance for
		// trailing columns.
		b.curZones = make([]Zone, b.numCols(r))
	}
	for i, v := range r {
		if i < len(b.curZones) {
			b.curZones[i].Extend(v)
		}
	}
	b.curByte += EstimateRowBytes(r)
	if b.curCol.Len() >= b.rowsPerBlock {
		b.flush()
	}
}

// AppendRow adds an unsampled (rate-1) row.
func (b *Builder) AppendRow(r types.Row) { b.Append(r, RowMeta{Rate: 1}) }

// AppendTable copies every row of src (with its metadata) into the
// builder — the re-chunking path. Rows are decoded through one reused
// buffer instead of a fresh allocation per row (safe: the columnar builder
// copies values out immediately and never retains the row slice).
func (b *Builder) AppendTable(src *Table) {
	var scratch types.Row
	for _, blk := range src.Blocks {
		d := blk.Col
		if cap(scratch) < len(d.Cols) {
			scratch = make(types.Row, len(d.Cols))
		}
		for i := 0; i < d.N; i++ {
			b.Append(d.RowInto(scratch[:len(d.Cols)], i), blk.MetaAt(i))
		}
	}
}

func (b *Builder) flush() {
	if b.curCol == nil {
		return
	}
	blk := &Block{
		Col:   b.curCol.Finish(),
		Zones: b.curZones,
		Node:  b.nextTgt % b.numNodes,
		Place: b.place,
		Bytes: b.curByte,
	}
	b.curCol = nil
	b.nextTgt++
	b.table.AddBlock(blk)
	b.curZones = nil
	b.curByte = 0
}

// Finish flushes any partial block and returns the table.
func (b *Builder) Finish() *Table {
	b.flush()
	return b.table
}

// SetPlacement moves every block of the table to the given tier. Used by
// experiments to compare cached vs uncached execution (Fig. 8(c)).
func SetPlacement(t *Table, p Placement) {
	for _, b := range t.Blocks {
		b.Place = p
	}
}

// Validate checks internal invariants: column/meta length parity, byte
// accounting and node assignment ranges. Returns the first violation found.
func Validate(t *Table, numNodes int) error {
	var rows, bytes int64
	for _, b := range t.Blocks {
		d := b.Col
		if d == nil {
			return fmt.Errorf("block %d: no columnar payload", b.ID)
		}
		for ci := range d.Cols {
			if got := d.Cols[ci].Len(); got != d.N {
				return fmt.Errorf("block %d: column %d length %d but %d rows", b.ID, ci, got, d.N)
			}
		}
		if d.Rates != nil && len(d.Rates) != d.N {
			return fmt.Errorf("block %d: %d rates but %d rows", b.ID, len(d.Rates), d.N)
		}
		if d.Freqs != nil && len(d.Freqs) != d.N {
			return fmt.Errorf("block %d: %d freqs but %d rows", b.ID, len(d.Freqs), d.N)
		}
		if numNodes > 0 && (b.Node < 0 || b.Node >= numNodes) {
			return fmt.Errorf("block %d: node %d out of range [0,%d)", b.ID, b.Node, numNodes)
		}
		for i, n := 0, b.NumRows(); i < n; i++ {
			if r := b.MetaAt(i).Rate; r <= 0 || r > 1 {
				return fmt.Errorf("block %d row %d: rate %g out of (0,1]", b.ID, i, r)
			}
		}
		rows += int64(b.NumRows())
		bytes += b.Bytes
	}
	if rows != t.rows {
		return fmt.Errorf("row accounting: blocks have %d, table says %d", rows, t.rows)
	}
	if bytes != t.bytes {
		return fmt.Errorf("byte accounting: blocks have %d, table says %d", bytes, t.bytes)
	}
	return nil
}
