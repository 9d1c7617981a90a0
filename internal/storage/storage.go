// Package storage provides the block-oriented table store underlying
// BlinkDB-Go. A Table is a list of Blocks; each block is a contiguous run
// of rows with a placement: the simulated cluster node it lives on and
// whether it is resident in memory or on disk.
//
// This mirrors the paper's HDFS layout (§2.2.1 "Storage optimization" and
// Fig. 4): samples are split into many small blocks spread across nodes,
// and multi-resolution samples map to non-overlapping block sets. The
// block is the unit the cluster model places and prices — at a large
// simulated scale it stands for a few hundred rows, or three. It is not
// the unit of storage: rows live in physical chunks of about chunkRows
// rows (internal/colstore), and a block is a window on one of them.
package storage

import (
	"fmt"
	"math"
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
//
// A zone is 24 bytes: its bracket's payload, read against the encoding of
// the column in the block's chunk —
//
//	EncInt, EncBool  the int64 value
//	EncFloat         the float64's bits
//	EncDict          the dictionary code
//	EncRLE           the run index (into RunVals)
//	EncValue         the row offset (into Values)
//
// — and a NULL flag for each end. Block.ZoneAt decodes it to Values.
type Zone struct {
	Lo, Hi uint64
	// Null has MinNull set when Min is NULL and MaxNull when Max is.
	Null uint8
}

// The bits of Zone.Null.
const (
	MinNull uint8 = 1 << iota
	MaxNull
)

// Block is a priced block: what the cluster model places on a node, prices
// as one read and prunes by its zones. It is pure metadata — its rows are
// the window [Off, Off+N) of a physical chunk that neighbouring blocks
// share. Readers outside the executor's vectorized scan use the accessor
// methods (NumRows, RowAt, MetaAt).
type Block struct {
	// ID is unique within a Table.
	ID int
	// Chunk holds the block's rows, among others: rows [Off, Off+N).
	Chunk  *colstore.Data
	Off, N int
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
func (b *Block) NumRows() int { return b.N }

// RowAt materialises row i (fresh per call, safe to retain).
func (b *Block) RowAt(i int) types.Row { return b.Chunk.Row(b.Off + i) }

// ZoneAt returns the bracket of column ci's values over the block's rows
// — the row-order fold of the values under types.Compare, NULLs included
// (see Cut) — and false when the block has no zone for ci.
func (b *Block) ZoneAt(ci int) (min, max types.Value, ok bool) {
	if ci >= len(b.Zones) {
		return min, max, false
	}
	z, col := &b.Zones[ci], &b.Chunk.Cols[ci]
	return ZoneEnd(col, z.Lo, z.Null&MinNull != 0), ZoneEnd(col, z.Hi, z.Null&MaxNull != 0), true
}

// ZoneEnd returns the value an end of a zone of col stands for: payload p
// (see Zone), or NULL when null is set. A run's or a value stream's end is
// the Value stored there.
func ZoneEnd(col *colstore.Column, p uint64, null bool) types.Value {
	switch col.Enc {
	case colstore.EncRLE:
		return col.RunVals[p]
	case colstore.EncValue:
		return col.Values[p]
	}
	if null {
		return types.Null()
	}
	switch col.Enc {
	case colstore.EncFloat:
		return types.Float(math.Float64frombits(p))
	case colstore.EncInt:
		return types.Int(int64(p))
	case colstore.EncBool:
		return types.Value{Kind: types.KindBool, I: int64(p)}
	default: // EncDict
		return types.Str(col.Dict[p])
	}
}

// MetaAt returns row i's sampling metadata.
func (b *Block) MetaAt(i int) RowMeta {
	run := b.Chunk.MetaRunOf(b.Off + i)
	return RowMeta{Rate: b.Chunk.Rates[run], StratumFreq: b.Chunk.Freqs[run]}
}

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

// Chunks returns the table's physical chunks in block order. A builder
// (or a loaded segment) lays a chunk's blocks out consecutively, so a new
// chunk starts wherever the pointer changes.
func (t *Table) Chunks() []*colstore.Data {
	var out []*colstore.Data
	for _, b := range t.Blocks {
		if b.Chunk != nil && (len(out) == 0 || out[len(out)-1] != b.Chunk) {
			out = append(out, b.Chunk)
		}
	}
	return out
}

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
	// Per-node state is dense, indexed by node id less the lowest one, and
	// reset per range by a touched-list: the pricing path calls this for
	// every resolution it considers.
	minNode, maxNode := blocks[0].Node, blocks[0].Node
	for _, b := range blocks {
		minNode, maxNode = min(minNode, b.Node), max(maxNode, b.Node)
	}
	width := maxNode - minNode + 1
	perNode := make([]int64, width) // the current range's bytes on each node it touches
	seenIn := make([]int, width)    // 1 + the last range that touched the node
	shardOf := make([]int, width)   // 1 + the node's index into shards, 0 for none yet
	var touched []int               // the current range's nodes, less minNode
	var shards []NodeShard
	for ri, r := range ranges {
		var total int64
		touched = touched[:0]
		for _, b := range blocks[r.Lo:r.Hi] {
			k := b.Node - minNode
			if seenIn[k] != ri+1 {
				seenIn[k], perNode[k] = ri+1, 0
				touched = append(touched, k)
			}
			perNode[k] += b.Bytes
			total += b.Bytes
		}
		// Owner: most bytes, ties to the lowest node id.
		owner, ownerBytes := touched[0], perNode[touched[0]]
		for _, k := range touched[1:] {
			if bytes := perNode[k]; bytes > ownerBytes || (bytes == ownerBytes && k < owner) {
				owner, ownerBytes = k, bytes
			}
		}
		if shardOf[owner] == 0 {
			shards = append(shards, NodeShard{Node: owner + minNode})
			shardOf[owner] = len(shards)
		}
		sh := &shards[shardOf[owner]-1]
		sh.Ranges = append(sh.Ranges, ri)
		sh.Bytes += total
		sh.LocalBytes += ownerBytes
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
		n += valueBytes(v)
	}
	return n
}

func valueBytes(v types.Value) int64 {
	switch v.Kind {
	case types.KindInt, types.KindFloat:
		return 8
	case types.KindString:
		return int64(len(v.S)) + 2
	default:
		return 1
	}
}

// chunkRows is how many rows a physical chunk aims to hold: enough that a
// scan's per-chunk setup (dictionaries, run cursors, bitmaps) disappears
// behind the rows, small enough that row indices stay 32-bit and a
// chunk-wide dictionary stays cache-sized. It is colstore.MaxDict (1<<16),
// so a chunk's dictionary codes fit 16 bits: a column has no more distinct
// strings than rows. They are 1- or 2-byte codes, chosen per chunk: one
// byte when the column has at most 256 distinct strings in the chunk. A
// Builder's chunk holds whole blocks, so it closes on the last block
// boundary at or under this (one block when a block alone is larger — the
// one case where a string column can outgrow its dictionary and is stored
// verbatim). A loaded table keeps its staging chunks of exactly this many
// rows (Reblock), each ending in a block that may be short.
const chunkRows = colstore.MaxDict

// Builder accumulates rows into physical chunks and cuts each chunk into
// fixed-size priced blocks, striped round-robin across numNodes cluster
// nodes (HDFS-style block spread).
type Builder struct {
	table        *Table
	rowsPerBlock int
	perChunk     int // rows per chunk: a whole number of blocks
	numNodes     int
	place        Placement

	cur     *colstore.Builder // created at the first row, reused per chunk
	nextTgt int

	// sortedCols hints sorted/low-cardinality columns to the chunk
	// encoder. Purely physical: logical content is identical either way.
	sortedCols []int

	// workers bounds the goroutines a chunk's per-column encoding and cut
	// fan out over (≤ 1: none).
	workers int
}

// NewBuilder creates a builder for the given table. rowsPerBlock is the
// priced block's size in rows; numNodes the round-robin striping width.
func NewBuilder(table *Table, rowsPerBlock, numNodes int, place Placement) *Builder {
	if rowsPerBlock <= 0 {
		rowsPerBlock = 8192
	}
	if numNodes <= 0 {
		numNodes = 1
	}
	return &Builder{
		table:        table,
		rowsPerBlock: rowsPerBlock,
		perChunk:     max(chunkRows/rowsPerBlock, 1) * rowsPerBlock,
		numNodes:     numNodes,
		place:        place,
	}
}

// NewStaging returns a builder for a table that is only ever re-blocked
// (Reblock), which keeps its chunks and reads its byte total and nothing
// else: each chunk of chunkRows rows is one block. Its chunks' columns are
// encoded and cut on up to workers goroutines, as SetWorkers says.
func NewStaging(table *Table, workers int) *Builder {
	b := NewBuilder(table, chunkRows, 1, OnDisk)
	b.SetWorkers(workers)
	return b
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
	if b.cur != nil {
		b.cur.HintSorted(cols...)
	}
}

// SetWorkers fans each chunk's per-column work — appending, encoding and
// cutting it into blocks — out over up to n goroutines; a builder it is
// not called on starts none. The table is the same for every n. Call it
// before the first row.
func (b *Builder) SetWorkers(n int) { b.workers = n }

// encoder returns the chunk encoder, creating it for width columns.
func (b *Builder) encoder(width int) *colstore.Builder {
	if b.cur == nil {
		// The schema's width when known, else the first row's: a narrow
		// leading row cannot silently drop trailing columns.
		if b.table.Schema != nil {
			width = b.table.Schema.Len()
		}
		b.cur = colstore.NewBuilder(width)
		if len(b.sortedCols) > 0 {
			b.cur.HintSorted(b.sortedCols...)
		}
		b.cur.SetWorkers(b.workers)
	}
	return b.cur
}

// Append adds one row with its sampling metadata. The values are copied:
// r is not retained, so a caller may reuse one row buffer for every Append.
func (b *Builder) Append(r types.Row, m RowMeta) {
	cur := b.encoder(len(r))
	cur.Append(r, m.Rate, m.StratumFreq)
	if cur.Len() >= b.perChunk {
		b.flush()
	}
}

// AppendRow adds an unsampled (rate-1) row.
func (b *Builder) AppendRow(r types.Row) { b.Append(r, RowMeta{Rate: 1}) }

// AppendColumns adds the first n rows of cols, where cols[c] holds column
// c's values, as unsampled (rate-1) rows, closing chunks where Append
// would. cols has one slice per column; the values are copied, not
// retained.
func (b *Builder) AppendColumns(cols [][]types.Value, n int) {
	for lo := 0; lo < n; {
		cur := b.encoder(len(cols))
		hi := min(n, lo+b.perChunk-cur.Len())
		cur.AppendColumns(cols, lo, hi, 1, 0)
		lo = hi
		if cur.Len() >= b.perChunk {
			b.flush()
		}
	}
}

// AppendGather adds row locs[k].Row of chunk srcs[locs[k].Chunk], for each
// k in order, every row with the sampling metadata m, closing chunks where
// Append would: the table is the one appending the rows one by one builds.
// The rows go column at a time as payloads (colstore.Builder.AppendGather).
func (b *Builder) AppendGather(srcs []*colstore.Data, locs []colstore.Loc, m RowMeta) {
	for len(locs) > 0 {
		cur := b.encoder(len(srcs[0].Cols))
		k := min(len(locs), b.perChunk-cur.Len())
		cur.AppendGather(srcs, locs[:k], m.Rate, m.StratumFreq)
		locs = locs[k:]
		if cur.Len() >= b.perChunk {
			b.flush()
		}
	}
}

// flush freezes the open chunk and cuts it into blocks.
func (b *Builder) flush() {
	if b.cur == nil || b.cur.Len() == 0 {
		return
	}
	b.addChunk(b.cur.Finish())
}

// addChunk cuts d into rowsPerBlock-row blocks, the last possibly short,
// and adds them to the table, striped round-robin across the nodes.
func (b *Builder) addChunk(d *colstore.Data) {
	blocks := cut(d, b.rowsPerBlock, b.workers)
	for i := range blocks {
		blk := &blocks[i]
		blk.Node = b.nextTgt % b.numNodes
		blk.Place = b.place
		b.nextTgt++
		b.table.AddBlock(blk)
	}
}

// Finish flushes the open chunk and returns the table.
func (b *Builder) Finish() *Table {
	b.flush()
	b.cur = nil
	return b.table
}

// Reblock returns src's chunks — the same Data, not copies — cut into
// rowsPerBlock-row blocks, striped round-robin across numNodes from the
// first block on. A chunk's last block may be short, as a table's last
// block may be: a block is a priced window on a chunk, and nothing reads
// where a chunk ends. Zones and byte sizes are computed for the new
// windows, each chunk's columns on up to workers goroutines; the table is
// the same for any count.
func Reblock(src *Table, rowsPerBlock, numNodes, workers int, place Placement) *Table {
	b := NewBuilder(NewTable(src.Name, src.Schema), rowsPerBlock, numNodes, place)
	b.SetWorkers(workers)
	for _, d := range src.Chunks() {
		b.addChunk(d)
	}
	return b.table
}

// Validate checks internal invariants: chunk column and metadata-run
// lengths, that every chunk's blocks tile it in order, sampling rates,
// byte accounting and node assignment ranges. Returns the first violation
// found.
func Validate(t *Table, numNodes int) error {
	var rows, bytes int64
	var chunk *colstore.Data
	end := 0 // rows of chunk covered by the blocks seen so far
	for _, b := range t.Blocks {
		if b.Chunk == nil {
			return fmt.Errorf("block %d: no chunk", b.ID)
		}
		if b.Chunk != chunk {
			if chunk != nil && end != chunk.N {
				return fmt.Errorf("block %d: previous chunk covered to row %d of %d", b.ID, end, chunk.N)
			}
			chunk, end = b.Chunk, 0
			if err := validateChunk(chunk); err != nil {
				return fmt.Errorf("block %d: %w", b.ID, err)
			}
		}
		if b.Off != end || b.N <= 0 || b.Off+b.N > chunk.N {
			return fmt.Errorf("block %d: window [%d,%d) does not continue at row %d of a %d-row chunk",
				b.ID, b.Off, b.Off+b.N, end, chunk.N)
		}
		end += b.N
		if numNodes > 0 && (b.Node < 0 || b.Node >= numNodes) {
			return fmt.Errorf("block %d: node %d out of range [0,%d)", b.ID, b.Node, numNodes)
		}
		rows += int64(b.N)
		bytes += b.Bytes
	}
	if chunk != nil && end != chunk.N {
		return fmt.Errorf("last chunk covered to row %d of %d", end, chunk.N)
	}
	if rows != t.rows {
		return fmt.Errorf("row accounting: blocks have %d, table says %d", rows, t.rows)
	}
	if bytes != t.bytes {
		return fmt.Errorf("byte accounting: blocks have %d, table says %d", bytes, t.bytes)
	}
	return nil
}

func validateChunk(d *colstore.Data) error {
	for ci := range d.Cols {
		if got := d.Cols[ci].Len(); got != d.N {
			return fmt.Errorf("column %d length %d but %d rows", ci, got, d.N)
		}
	}
	if len(d.Rates) != len(d.MetaEnds) || len(d.Freqs) != len(d.MetaEnds) {
		return fmt.Errorf("%d metadata runs with %d rates and %d freqs", len(d.MetaEnds), len(d.Rates), len(d.Freqs))
	}
	prev := int32(0)
	for r, end := range d.MetaEnds {
		if end <= prev {
			return fmt.Errorf("metadata run %d ends at %d after %d", r, end, prev)
		}
		prev = end
		if rate := d.Rates[r]; rate <= 0 || rate > 1 {
			return fmt.Errorf("metadata run %d: rate %g out of (0,1]", r, rate)
		}
	}
	if int(prev) != d.N {
		return fmt.Errorf("metadata runs cover %d of %d rows", prev, d.N)
	}
	return nil
}
