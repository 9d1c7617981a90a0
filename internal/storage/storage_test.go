package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"blinkdb/internal/colstore"
	"blinkdb/internal/types"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "city", Kind: types.KindString},
	)
}

func buildTable(t *testing.T, n, rowsPerBlock, nodes int) *Table {
	t.Helper()
	tab := NewTable("t", testSchema())
	b := NewBuilder(tab, rowsPerBlock, nodes, OnDisk)
	for i := 0; i < n; i++ {
		b.AppendRow(types.Row{types.Int(int64(i)), types.Str("NY")})
	}
	b.Finish()
	if err := Validate(tab, nodes); err != nil {
		t.Fatalf("invalid table: %v", err)
	}
	return tab
}

func TestBuilderBlocksAndCounts(t *testing.T) {
	tab := buildTable(t, 100, 16, 4)
	if tab.NumRows() != 100 {
		t.Errorf("NumRows = %d", tab.NumRows())
	}
	// 100/16 → 7 blocks (6 full + 1 partial).
	if len(tab.Blocks) != 7 {
		t.Errorf("blocks = %d, want 7", len(tab.Blocks))
	}
	if tab.Blocks[6].NumRows() != 4 {
		t.Errorf("last block rows = %d, want 4", tab.Blocks[6].NumRows())
	}
	if tab.Bytes() <= 0 {
		t.Error("bytes should be positive")
	}
}

func TestBuilderRoundRobinPlacement(t *testing.T) {
	tab := buildTable(t, 100, 10, 4)
	for i, b := range tab.Blocks {
		if b.Node != i%4 {
			t.Errorf("block %d on node %d, want %d", i, b.Node, i%4)
		}
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	tab := buildTable(t, 50, 8, 2)
	var seen []int64
	tab.Scan(func(r types.Row, m RowMeta) bool {
		if m.Rate != 1 {
			t.Fatalf("rate = %g, want 1", m.Rate)
		}
		seen = append(seen, r[0].I)
		return len(seen) < 10
	})
	if len(seen) != 10 {
		t.Fatalf("early stop failed: scanned %d", len(seen))
	}
	for i, v := range seen {
		if v != int64(i) {
			t.Fatalf("scan order broken at %d: %d", i, v)
		}
	}
}

func TestEstimateRowBytes(t *testing.T) {
	r := types.Row{types.Int(1), types.Str("abc"), types.Float(1.5), types.Null()}
	// 8 + (3+2) + 8 + 1 = 22
	if got := EstimateRowBytes(r); got != 22 {
		t.Errorf("EstimateRowBytes = %d, want 22", got)
	}
}

func TestSetPlacement(t *testing.T) {
	tab := Recut(buildTable(t, 30, 8, 2), 8, 2, InMemory)
	for _, b := range tab.Blocks {
		if b.Place != InMemory {
			t.Fatal("placement not applied")
		}
	}
	if InMemory.String() != "memory" || OnDisk.String() != "disk" {
		t.Error("Placement.String wrong")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tab := buildTable(t, 20, 8, 2)
	tab.Blocks[0].Chunk.MetaEnds = []int32{1}
	if err := Validate(tab, 2); err == nil {
		t.Error("meta/rows mismatch not caught")
	}

	tab2 := buildTable(t, 20, 8, 2)
	tab2.Blocks[0].Chunk.Rates[0] = 0
	if err := Validate(tab2, 2); err == nil {
		t.Error("zero rate not caught")
	}

	tab3 := buildTable(t, 20, 8, 2)
	tab3.Blocks[0].Node = 99
	if err := Validate(tab3, 2); err == nil {
		t.Error("node out of range not caught")
	}

	tab4 := buildTable(t, 20, 8, 2)
	tab4.Blocks[0].Bytes++
	if err := Validate(tab4, 2); err == nil {
		t.Error("byte drift not caught")
	}

	tab5 := buildTable(t, 20, 8, 2)
	tab5.Blocks[1].Off++
	if err := Validate(tab5, 2); err == nil {
		t.Error("a window that does not continue its chunk not caught")
	}
}

// Property: for any row count and block size, total scanned rows equals
// appended rows and blocks are bounded by ceil(n/rowsPerBlock).
func TestBuilderConservation(t *testing.T) {
	f := func(n uint16, bs uint8) bool {
		rows := int(n % 2000)
		blockSize := int(bs%64) + 1
		tab := NewTable("q", testSchema())
		b := NewBuilder(tab, blockSize, 3, InMemory)
		for i := 0; i < rows; i++ {
			b.AppendRow(types.Row{types.Int(int64(i)), types.Str("x")})
		}
		b.Finish()
		count := 0
		tab.Scan(func(types.Row, RowMeta) bool { count++; return true })
		wantBlocks := (rows + blockSize - 1) / blockSize
		return count == rows && len(tab.Blocks) == wantBlocks &&
			Validate(tab, 3) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBuilderDefaults(t *testing.T) {
	tab := NewTable("d", testSchema())
	b := NewBuilder(tab, 0, 0, OnDisk) // defaults kick in
	b.AppendRow(types.Row{types.Int(1), types.Str("x")})
	b.Finish()
	if len(tab.Blocks) != 1 || tab.Blocks[0].Node != 0 {
		t.Error("defaults broken")
	}
}

// mixedRows generates rows of mixed value kinds (nulls, strings, floats)
// with varying stratum frequencies, to exercise every encoding.
func mixedRows(n int) ([]types.Row, []RowMeta) {
	cities := []string{"NY", "SF", "LA"}
	rows, metas := make([]types.Row, n), make([]RowMeta, n)
	for i := range rows {
		v := types.Float(float64(i) * 1.5)
		if i%11 == 0 {
			v = types.Null()
		}
		rows[i] = types.Row{types.Int(int64(i)), types.Str(cities[i%3]), v}
		metas[i] = RowMeta{Rate: 1, StratumFreq: int64(i % 4 * 100)}
	}
	return rows, metas
}

func mixedSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "v", Kind: types.KindFloat},
	)
}

// buildMixedTable builds a validated table from mixedRows.
func buildMixedTable(t *testing.T, n, rowsPerBlock, nodes int) *Table {
	t.Helper()
	tab := NewTable("t", mixedSchema())
	b := NewBuilder(tab, rowsPerBlock, nodes, OnDisk)
	rows, metas := mixedRows(n)
	for i, r := range rows {
		b.Append(r, metas[i])
	}
	b.Finish()
	if err := Validate(tab, nodes); err != nil {
		t.Fatalf("invalid table: %v", err)
	}
	return tab
}

// TestBlockAccessorsMatchAppendedRows pins that a built table gives back
// exactly what was appended through every reader: block boundaries, zones,
// RowAt/MetaAt, a column value read in place, and Table.Scan including early stop.
func TestBlockAccessorsMatchAppendedRows(t *testing.T) {
	tab := buildMixedTable(t, 230, 16, 4)
	rows, metas := mixedRows(230)
	if len(tab.Blocks) != 15 || tab.NumRows() != 230 {
		t.Fatalf("shape: %d blocks, %d rows", len(tab.Blocks), tab.NumRows())
	}
	n := 0
	for bi, b := range tab.Blocks {
		if b.Node != bi%4 || b.Place != OnDisk || len(b.Zones) != 3 {
			t.Fatalf("block %d physical mismatch", bi)
		}
		if z := b.Zones[0]; !z.Valid || z.Min.I != int64(n) || z.Max.I != int64(n+b.NumRows()-1) {
			t.Fatalf("block %d id zone %+v, rows start at %d", bi, z, n)
		}
		for i := 0; i < b.NumRows(); i, n = i+1, n+1 {
			if b.MetaAt(i) != metas[n] {
				t.Fatalf("block %d row %d meta differs", bi, i)
			}
			got := b.RowAt(i)
			for ci, want := range rows[n] {
				if v := b.Chunk.Cols[ci].Value(b.Off + i); got[ci] != want || v != want {
					t.Fatalf("block %d row %d col %d: RowAt %v, in place %v, appended %v", bi, i, ci, got[ci], v, want)
				}
			}
		}
	}
	var seen []types.Row
	tab.Scan(func(r types.Row, m RowMeta) bool {
		if m != metas[len(seen)] {
			t.Fatalf("scan row %d meta differs", len(seen))
		}
		seen = append(seen, r)
		return len(seen) < 70
	})
	if len(seen) != 70 {
		t.Fatalf("early stop scanned %d rows, want 70", len(seen))
	}
	for i, r := range seen {
		for ci := range r {
			if r[ci] != rows[i][ci] {
				t.Fatalf("scan row %d col %d: %v vs %v", i, ci, r[ci], rows[i][ci])
			}
		}
	}
}

// TestZoneSizingFromSchema is the regression test for the zone-sizing
// bug: a narrow first row used to size the zones, silently disabling zone
// maintenance for trailing columns of later (full-width) rows. The narrow
// row's missing column is a NULL like any other, so it is the bracket's
// minimum: a zone that left it out let `city >= 'AA'` count that row.
func TestZoneSizingFromSchema(t *testing.T) {
	tab := NewTable("z", testSchema()) // (id INT, city STRING)
	b := NewBuilder(tab, 8, 1, OnDisk)
	b.AppendRow(types.Row{types.Int(5)}) // narrow row first
	b.AppendRow(types.Row{types.Int(1), types.Str("AA")})
	b.AppendRow(types.Row{types.Int(9), types.Str("ZZ")})
	b.Finish()
	blk := tab.Blocks[0]
	if len(blk.Zones) != 2 {
		t.Fatalf("zones sized %d from first row, want 2 (schema width)", len(blk.Zones))
	}
	z := blk.Zones[1]
	if !z.Valid || !z.Min.IsNull() || z.Max.S != "ZZ" {
		t.Fatalf("trailing column zone not maintained: %+v", z)
	}
	if z0 := blk.Zones[0]; !z0.Valid || z0.Min.I != 1 || z0.Max.I != 9 {
		t.Fatalf("leading zone wrong: %+v", z0)
	}
}

// recutRows extends mixedRows with the shapes a re-cut must carry over
// encoding by encoding: a string column with NULLs, a column whose kinds
// mix in every chunk, one whose kind changes where the first chunk ends,
// one that RLE-encodes in the source, one that is NULL until past the
// first chunk, a bool column, float NaNs (of two payloads) and −0, and two
// int columns at the ends of int64 (one with NULLs) that a chunk stores
// narrow or wide by a margin of one.
func recutRows(n int) ([]types.Row, []RowMeta) {
	rows, metas := mixedRows(n)
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	for i, r := range rows {
		city := r[1]
		if i%13 == 0 {
			city = types.Null()
		}
		v := r[2]
		switch {
		case i%97 == 0:
			v = types.Float(math.NaN())
		case i%101 == 0:
			v = types.Float(nan2)
		case i%103 == 0:
			v = types.Float(math.Copysign(0, -1))
		}
		mix := types.Int(int64(i % 5))
		if i%7 == 0 {
			mix = types.Float(float64(i%5) + 0.5)
		}
		phase := types.Int(int64(i % 1000))
		if i >= chunkRows {
			phase = types.Str(fmt.Sprintf("p%d", i%1000))
		}
		grp := types.Str(fmt.Sprintf("g%d", i/700))
		if i/700%5 == 4 {
			grp = types.Null()
		}
		late := types.Null()
		if i >= chunkRows+100 {
			late = types.Int(int64(i % 17))
		}
		// Ints at the ends of int64 whose span is 65,535 over the first
		// chunk of a build (narrow) and 65,536 over the second (wide).
		top := types.Int(math.MaxInt64 - int64(i%65537))
		bottom := types.Null()
		if i%19 != 0 {
			bottom = types.Int(math.MinInt64 + int64(i%65537))
		}
		rows[i] = types.Row{r[0], city, v, mix, phase, grp, late, types.Bool(i%3 == 0), top, bottom}
	}
	return rows, metas
}

func recutSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "v", Kind: types.KindFloat},
		types.Column{Name: "mix", Kind: types.KindInt},
		types.Column{Name: "phase", Kind: types.KindInt},
		types.Column{Name: "grp", Kind: types.KindString},
		types.Column{Name: "late", Kind: types.KindInt},
		types.Column{Name: "flag", Kind: types.KindBool},
		types.Column{Name: "top", Kind: types.KindInt},
		types.Column{Name: "bottom", Kind: types.KindInt},
	)
}

func sameValues(a, b []types.Value) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// chunkDiff describes the first field in which two chunks differ, "" when
// they are identical: encodings, dictionary order, codes, payloads (floats
// by their bits, ints in either form: Ints, or Base and Offs), null
// bitmaps, runs, NaNFree and the metadata runs.
func chunkDiff(got, want *colstore.Data) string {
	if got.N != want.N {
		return fmt.Sprintf("%d rows, want %d", got.N, want.N)
	}
	if !reflect.DeepEqual(got.MetaEnds, want.MetaEnds) || !sameFloats(got.Rates, want.Rates) || !reflect.DeepEqual(got.Freqs, want.Freqs) {
		return "metadata runs differ"
	}
	for c := range want.Cols {
		g, w := &got.Cols[c], &want.Cols[c]
		switch {
		case g.Enc != w.Enc:
			return fmt.Sprintf("col %d: encoding %v, want %v", c, g.Enc, w.Enc)
		case g.NaNFree != w.NaNFree:
			return fmt.Sprintf("col %d: NaNFree %v, want %v", c, g.NaNFree, w.NaNFree)
		case !reflect.DeepEqual(g.Dict, w.Dict):
			return fmt.Sprintf("col %d: dictionary differs", c)
		case !reflect.DeepEqual(g.Codes8, w.Codes8) || !reflect.DeepEqual(g.Codes16, w.Codes16):
			return fmt.Sprintf("col %d: codes differ", c)
		case !reflect.DeepEqual(g.Ints, w.Ints):
			return fmt.Sprintf("col %d: ints differ", c)
		case g.Base != w.Base || !reflect.DeepEqual(g.Offs, w.Offs):
			return fmt.Sprintf("col %d: narrow ints differ (base %d, want %d)", c, g.Base, w.Base)
		case !sameFloats(g.Floats, w.Floats):
			return fmt.Sprintf("col %d: floats differ", c)
		case !sameValues(g.Values, w.Values):
			return fmt.Sprintf("col %d: values differ", c)
		case !reflect.DeepEqual(g.Nulls, w.Nulls):
			return fmt.Sprintf("col %d: null bitmaps differ", c)
		case !sameValues(g.RunVals, w.RunVals) || !reflect.DeepEqual(g.RunEnds, w.RunEnds):
			return fmt.Sprintf("col %d: runs differ", c)
		}
	}
	return ""
}

func sameZones(a, b []Zone) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Valid != b[i].Valid || !sameValue(a[i].Min, b[i].Min) || !sameValue(a[i].Max, b[i].Max) {
			return false
		}
	}
	return true
}

// TestRecut pins the re-cut a loader does once it knows its block size:
// contents, metadata and totals survive, blocks come out at the new size
// with the zones and bytes a fresh build of the same rows gives them, and
// chunk boundaries move so that every chunk still holds whole blocks —
// each chunk equal, field for field, to the one a fresh build encodes.
func TestRecut(t *testing.T) {
	const n = 3*chunkRows + 1234 // several provisional chunks
	rows, metas := recutRows(n)
	build := func(rowsPerBlock, nodes int) *Table {
		tab := NewTable("t", recutSchema())
		b := NewBuilder(tab, rowsPerBlock, nodes, OnDisk)
		for i, r := range rows {
			b.Append(r, metas[i])
		}
		return b.Finish()
	}
	src := build(8192, 4)
	if c := src.Chunks(); !c[0].Cols[8].Narrow() || c[1].Cols[8].Narrow() || !c[0].Cols[9].Narrow() || c[1].Cols[9].Narrow() {
		t.Fatal("the top and bottom columns are not narrow in the first chunk and wide in the second")
	}
	for _, rowsPerBlock := range []int{3, 308, 5000, chunkRows + 7} {
		dst := Recut(src, rowsPerBlock, 2, OnDisk)
		if err := Validate(dst, 2); err != nil {
			t.Fatalf("rowsPerBlock %d: %v", rowsPerBlock, err)
		}
		want := build(rowsPerBlock, 2)
		if len(dst.Blocks) != len(want.Blocks) || dst.NumRows() != src.NumRows() || dst.Bytes() != src.Bytes() {
			t.Fatalf("rowsPerBlock %d: %d blocks (want %d), %d/%d rows, %d/%d bytes", rowsPerBlock,
				len(dst.Blocks), len(want.Blocks), dst.NumRows(), src.NumRows(), dst.Bytes(), src.Bytes())
		}
		gotChunks, wantChunks := dst.Chunks(), want.Chunks()
		if len(gotChunks) != len(wantChunks) {
			t.Fatalf("rowsPerBlock %d: %d chunks, a fresh build has %d", rowsPerBlock, len(gotChunks), len(wantChunks))
		}
		for k := range wantChunks {
			if diff := chunkDiff(gotChunks[k], wantChunks[k]); diff != "" {
				t.Fatalf("rowsPerBlock %d chunk %d: %s", rowsPerBlock, k, diff)
			}
		}
		at := 0
		for bi, blk := range dst.Blocks {
			wb := want.Blocks[bi]
			if blk.N != wb.N || blk.Off != wb.Off || blk.Bytes != wb.Bytes || blk.Node != wb.Node || !sameZones(blk.Zones, wb.Zones) {
				t.Fatalf("rowsPerBlock %d block %d: %+v, a fresh build has %+v", rowsPerBlock, bi, blk, wb)
			}
			for ri := 0; ri < blk.N; ri += 1 + blk.N/7 { // a few rows of every block
				if blk.MetaAt(ri) != metas[at+ri] {
					t.Fatalf("rowsPerBlock %d: meta diverged at block %d row %d", rowsPerBlock, bi, ri)
				}
				for ci, v := range blk.RowAt(ri) {
					if !sameValue(v, rows[at+ri][ci]) {
						t.Fatalf("rowsPerBlock %d: row diverged at block %d row %d col %d: %v vs %v", rowsPerBlock, bi, ri, ci, v, rows[at+ri][ci])
					}
				}
			}
			at += blk.N
		}
	}
}

func TestPartitionBlocksByNodeBoundariesUnchanged(t *testing.T) {
	// The affine partitioner must reuse PartitionBlocks's boundaries
	// exactly — that is what keeps affinity-on results bit-identical to
	// the node-blind schedule (float accumulation order is fixed by the
	// ranges, not by which worker consumes them).
	for _, n := range []int{0, 1, 5, 64, 300, 1000} {
		for _, maxParts := range []int{1, 7, 256} {
			tab := buildTable(t, n*3+1, 3, 4)
			blocks := tab.Blocks
			if len(blocks) > n {
				blocks = blocks[:n]
			}
			want := PartitionBlocks(len(blocks), maxParts)
			got, _ := PartitionBlocksByNode(blocks, maxParts)
			if len(want) != len(got) {
				t.Fatalf("n=%d parts=%d: %d ranges vs %d", n, maxParts, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("n=%d parts=%d range %d: %+v vs %+v", n, maxParts, i, want[i], got[i])
				}
			}
		}
	}
}

func TestPartitionBlocksByNodeShardsCoverAllRangesOnce(t *testing.T) {
	tab := buildTable(t, 900, 3, 7) // 300 blocks striped over 7 nodes
	ranges, shards := PartitionBlocksByNode(tab.Blocks, 256)
	seen := make([]int, len(ranges))
	lastNode := -1
	for _, s := range shards {
		if s.Node <= lastNode {
			t.Fatalf("shards not in ascending node order: %d after %d", s.Node, lastNode)
		}
		lastNode = s.Node
		prev := -1
		for _, ri := range s.Ranges {
			if ri <= prev {
				t.Fatalf("shard %d ranges not ascending: %d after %d", s.Node, ri, prev)
			}
			prev = ri
			seen[ri]++
		}
	}
	for ri, c := range seen {
		if c != 1 {
			t.Fatalf("range %d claimed %d times", ri, c)
		}
	}
}

func TestPartitionBlocksByNodeOwnerAndLocality(t *testing.T) {
	// Single-block ranges: the owner is the block's node and locality is
	// perfect.
	tab := buildTable(t, 60, 3, 4) // 20 blocks over 4 nodes, ≤256 parts
	ranges, shards := PartitionBlocksByNode(tab.Blocks, 256)
	if len(ranges) != len(tab.Blocks) {
		t.Fatalf("expected one range per block, got %d for %d blocks", len(ranges), len(tab.Blocks))
	}
	if len(shards) != 4 {
		t.Fatalf("expected 4 shards, got %d", len(shards))
	}
	for _, s := range shards {
		if s.LocalBytes != s.Bytes {
			t.Errorf("node %d: local %d != total %d with single-block ranges", s.Node, s.LocalBytes, s.Bytes)
		}
		for _, ri := range s.Ranges {
			if got := tab.Blocks[ranges[ri].Lo].Node; got != s.Node {
				t.Errorf("range %d owned by node %d but its block lives on %d", ri, s.Node, got)
			}
		}
	}
	if hr := LocalityHitRate(shards); hr != 1 {
		t.Errorf("hit rate = %g, want 1 for single-block ranges", hr)
	}
	if rb := RemoteBytes(shards); rb != 0 {
		t.Errorf("remote bytes = %d, want 0", rb)
	}

	// Multi-block ranges straddling nodes: owner is the max-bytes node
	// (ties to the lowest id) and the off-owner share is remote.
	blocks := []*Block{
		{ID: 0, Node: 2, Bytes: 100},
		{ID: 1, Node: 0, Bytes: 100},
		{ID: 2, Node: 2, Bytes: 50},
	}
	_, sh := PartitionBlocksByNode(blocks, 1) // one range over all three
	if len(sh) != 1 || sh[0].Node != 2 {
		t.Fatalf("owner = %+v, want node 2 (150 of 250 bytes)", sh)
	}
	if sh[0].Bytes != 250 || sh[0].LocalBytes != 150 {
		t.Errorf("bytes = %d/%d, want 150/250", sh[0].LocalBytes, sh[0].Bytes)
	}
	if rb := RemoteBytes(sh); rb != 100 {
		t.Errorf("remote = %d, want 100", rb)
	}

	// Byte tie between nodes 3 and 1 → lowest id wins.
	tie := []*Block{
		{ID: 0, Node: 3, Bytes: 80},
		{ID: 1, Node: 1, Bytes: 80},
	}
	_, sh = PartitionBlocksByNode(tie, 1)
	if len(sh) != 1 || sh[0].Node != 1 {
		t.Fatalf("tie should go to the lowest node id, got %+v", sh)
	}

	// Empty input.
	if r, s := PartitionBlocksByNode(nil, 8); r != nil || s != nil {
		t.Errorf("nil blocks should partition to nil, got %v %v", r, s)
	}
	if hr := LocalityHitRate(nil); hr != 1 {
		t.Errorf("empty shard list hit rate = %g, want 1", hr)
	}
}

// TestPartitionBlocksByNodeMatchesMapReference holds the dense per-node
// bookkeeping to the rule as first written — a byte count per node in a map
// — over random placements with byte ties, zero-byte blocks and node ids
// that do not start at 0.
func TestPartitionBlocksByNodeMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		blocks := make([]*Block, 1+rng.Intn(400))
		lowest, nodes := rng.Intn(3)*5, 1+rng.Intn(9)
		for i := range blocks {
			blocks[i] = &Block{ID: i, Node: lowest + rng.Intn(nodes), Bytes: int64(rng.Intn(4)) * 100}
		}
		maxParts := []int{1, 7, 256}[rng.Intn(3)]
		ranges, shards := PartitionBlocksByNode(blocks, maxParts)
		want := map[int]*NodeShard{}
		for ri, r := range ranges {
			perNode := map[int]int64{}
			var total int64
			for _, b := range blocks[r.Lo:r.Hi] {
				perNode[b.Node] += b.Bytes
				total += b.Bytes
			}
			owner, ownerBytes, first := 0, int64(0), true
			for node, bytes := range perNode {
				if first || bytes > ownerBytes || (bytes == ownerBytes && node < owner) {
					owner, ownerBytes, first = node, bytes, false
				}
			}
			if want[owner] == nil {
				want[owner] = &NodeShard{Node: owner}
			}
			want[owner].Ranges = append(want[owner].Ranges, ri)
			want[owner].Bytes += total
			want[owner].LocalBytes += ownerBytes
		}
		if len(shards) != len(want) {
			t.Fatalf("trial %d: %d shards, want %d", trial, len(shards), len(want))
		}
		for i, s := range shards {
			if w := want[s.Node]; w == nil || !reflect.DeepEqual(s, *w) || (i > 0 && shards[i-1].Node >= s.Node) {
				t.Fatalf("trial %d: shard %d is %+v, want %+v in ascending node order", trial, i, s, w)
			}
		}
	}
}
