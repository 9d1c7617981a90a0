package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// fakeBlocks builds blocks that carry only a row count — all scanRanges
// reads.
func fakeBlocks(sizes ...int) []*storage.Block {
	out := make([]*storage.Block, len(sizes))
	for i, n := range sizes {
		out[i] = &storage.Block{N: n}
	}
	return out
}

func repeat(n, size int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = size
	}
	return out
}

// TestScanRangesInvariants pins the partition the bit-identity argument
// rests on: contiguous cover, every range at least one unit of rows (a
// list shorter than that is one range), never more than maxPartials, and
// boundaries that are a function of the row counts alone.
func TestScanRangesInvariants(t *testing.T) {
	shapes := map[string][]int{
		"empty list":         nil,
		"one empty block":    {0},
		"under one unit":     repeat(20, 300),
		"exactly one unit":   repeat(32, 256),
		"exactly two units":  repeat(64, 256),
		"one row short":      append(repeat(31, 256), 255),
		"one-row tail":       append(repeat(56, 300), 1),
		"empty blocks":       {0, 300, 0, 0, 8000, 0, 9000, 0},
		"one big block":      append(append(repeat(5, 300), 8192), repeat(5, 300)...),
		"benchmark probe":    repeat(60, 170),
		"benchmark scan":     repeat(2942, 170),
		"past the cap":       repeat(400, 8192),
		"cap, ragged blocks": append(repeat(3000, 1000), 7),
	}
	for name, sizes := range shapes {
		blocks := fakeBlocks(sizes...)
		ranges := scanRanges(blocks)
		total := 0
		for _, n := range sizes {
			total += n
		}
		if len(blocks) == 0 {
			if ranges != nil {
				t.Errorf("%s: ranges for no blocks: %v", name, ranges)
			}
			continue
		}
		target := max(minPartialRows, (total+maxPartials-1)/maxPartials)
		if len(ranges) > maxPartials || len(ranges) > max(total/target, 1) {
			t.Errorf("%s: %d ranges for %d rows", name, len(ranges), total)
		}
		prev := 0
		for i, r := range ranges {
			if r.Lo != prev || r.Hi <= r.Lo {
				t.Fatalf("%s: range %d = %+v does not continue at %d", name, i, r, prev)
			}
			prev = r.Hi
			rows := 0
			for _, b := range blocks[r.Lo:r.Hi] {
				rows += b.NumRows()
			}
			if rows < target && len(ranges) > 1 {
				t.Errorf("%s: range %d holds %d rows, unit is %d", name, i, rows, target)
			}
			// A range is closed by the block that fills it: without its last
			// non-empty block it must fall short (the final range also takes
			// the leftovers, so only the others are minimal).
			if i < len(ranges)-1 && rows-blocks[r.Hi-1].NumRows() >= target {
				t.Errorf("%s: range %d ran past its unit: %d rows", name, i, rows)
			}
		}
		if prev != len(blocks) {
			t.Errorf("%s: ranges cover %d of %d blocks", name, prev, len(blocks))
		}
		// Placement, bytes and payload must not move a boundary.
		moved := fakeBlocks(sizes...)
		for i, b := range moved {
			b.Node, b.Bytes = (i*7)%13, int64(i)
		}
		if got := scanRanges(moved); !reflect.DeepEqual(got, ranges) {
			t.Errorf("%s: partition depends on more than row counts", name)
		}
	}
	if got := len(scanRanges(fakeBlocks(repeat(60, 170)...))); got != 1 {
		t.Errorf("a 10k-row probe is %d ranges, want 1 (inline, no goroutine)", got)
	}
	if got := len(scanRanges(fakeBlocks(repeat(40000, 100)...))); got > maxPartials || got < maxPartials*9/10 {
		t.Errorf("a 488-unit scan of small blocks is %d ranges, want just under the cap %d", got, maxPartials)
	}
}

// irregularTable builds both physical designs (plain encodings, RLE) of one
// logical table whose block sizes are given explicitly (0 = an empty
// block): the shapes where a row-budgeted partition can go wrong.
func irregularTable(t testing.TB, sizes []int) (plain, rle *storage.Table) {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "strat", Kind: types.KindString},
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "code", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindFloat},
	)
	cities := []string{"NY", "NY", "NY", "SF", "SF", "LA", "Austin", "Boise"}
	build := func(noRLE bool) *storage.Table {
		tab := storage.NewTable("t", schema)
		rng := rand.New(rand.NewSource(5))
		n := 0
		for bi, size := range sizes {
			one := storage.NewTable("t", schema)
			b := storage.NewBuilder(one, size+1, 7, storage.InMemory)
			if noRLE {
				b.DisableRLE()
			} else {
				b.HintSortedColumns(0)
			}
			for i := 0; i < size; i++ {
				v := types.Float(rng.ExpFloat64() * 100)
				if rng.Intn(40) == 0 {
					v = types.Null()
				}
				b.Append(types.Row{
					types.Str(fmt.Sprintf("s%03d", n/700)), // long runs → RLE
					types.Str(cities[rng.Intn(len(cities))]),
					types.Int(int64(rng.Intn(1000))),
					v,
				}, storage.RowMeta{Rate: 1, StratumFreq: int64(50 * (1 + rng.Intn(4)))})
				n++
			}
			blk := &storage.Block{}
			if size > 0 {
				blk = b.Finish().Blocks[0]
			}
			blk.Node = bi % 7
			tab.AddBlock(blk)
		}
		return tab
	}
	return build(true), build(false)
}

var irregularShapes = map[string][]int{
	"one-row tail":      append(repeat(56, 300), 1),               // two units, then a 1-row block
	"empty blocks":      {0, 300, 0, 7900, 0, 0, 8200, 0, 300, 0}, // empties at every kind of boundary
	"one big block":     append(append(repeat(30, 300), 8192), repeat(30, 300)...),
	"under one unit":    repeat(20, 300),
	"on the boundary":   repeat(96, 256), // exactly three units, no leftovers
	"one row past":      append(repeat(64, 256), 1),
	"300-row blocks ×4": repeat(110, 300),
}

// TestPartitionInvariant is the property the row-budgeted partition must
// keep: over tables with irregular blocks, every worker count × physical
// design returns the oracle's Result. (The other equivalence sweeps run on
// tables of a few thousand rows, which are one range; these shapes are the
// ones that fold several.)
func TestPartitionInvariant(t *testing.T) {
	queries := []string{
		`SELECT COUNT(*), SUM(v), AVG(v) FROM t GROUP BY city`,
		`SELECT AVG(v), MEDIAN(v) FROM t WHERE code < 700 GROUP BY strat`,
		`SELECT SUM(v) FROM t WHERE city = 'NY' AND code >= 250`,
		`SELECT COUNT(*) FROM t WHERE city = 'Nowhere'`,
	}
	for name, sizes := range irregularShapes {
		plain, rle := irregularTable(t, sizes)
		if !hasRLEColumn(rle) || hasRLEColumn(plain) {
			t.Fatalf("%s: RLE legs are not what they claim", name)
		}
		for _, src := range queries {
			p := compile(t, src, plain.Schema)
			for leg, tab := range map[string]*storage.Table{"plain": plain, "rle": rle} {
				label := name + " " + leg + " " + src
				checkOracle(t, label, p, FromTable(tab), nil)
				checkOracle(t, label+" weighted", p, viewOf(tab.Schema, tab.Blocks, 50, 120), nil)
			}
		}
	}
}

// TestPartitionInvariantJoin is the same property on the join path.
func TestPartitionInvariantJoin(t *testing.T) {
	dimSchema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "region", Kind: types.KindString},
	)
	dim := storage.NewTable("regions", dimSchema)
	db := storage.NewBuilder(dim, 16, 2, storage.InMemory)
	for _, c := range [][2]string{{"NY", "east"}, {"SF", "west"}, {"LA", "west"}, {"Austin", "south"}} {
		db.AppendRow(types.Row{types.Str(c[0]), types.Str(c[1])})
	}
	db.Finish()
	for name, sizes := range irregularShapes {
		plain, rle := irregularTable(t, sizes)
		combined, err := JoinedSchema(plain.Schema, []*storage.Table{dim})
		if err != nil {
			t.Fatal(err)
		}
		joins := []JoinSpec{joinSpec(t, dim, plain.Schema.Index("city"), 0)}
		p := compile(t, `SELECT COUNT(*), AVG(v) FROM t WHERE code < 700 GROUP BY region`, combined)
		checkOracle(t, name+" plain", p, FromTable(plain), joins)
		checkOracle(t, name+" rle", p, FromTable(rle), joins)
	}
}

// TestPrunedInputSkipsNothing pins Input.Pruned: the same Result as the
// unpruned input (the scan prunes as it goes either way), and the marker
// only short-circuits the re-check for the plan it was pruned against.
func TestPrunedInputSkipsNothing(t *testing.T) {
	plain, _ := irregularTable(t, irregularShapes["one big block"])
	p := compile(t, `SELECT COUNT(*), AVG(v) FROM t WHERE strat = 's004' GROUP BY city`, plain.Schema)
	other := compile(t, `SELECT COUNT(*), AVG(v) FROM t WHERE strat = 's009' GROUP BY city`, plain.Schema)
	in := FromTable(plain)
	pruned := in.Pruned(p)
	if len(pruned.Blocks) == 0 || len(pruned.Blocks) >= len(in.Blocks) {
		t.Fatalf("pruning kept %d of %d blocks; the test needs a real cut", len(pruned.Blocks), len(in.Blocks))
	}
	if want, got := Run(p, in, 0.95), Run(p, pruned, 0.95); !reflect.DeepEqual(want, got) {
		t.Fatalf("pruned input changed the answer\nwant %+v\ngot  %+v", want, got)
	}
	// Pruned for p, scanned by another plan: its own zone check must run.
	if want, got := Run(other, Input{Schema: plain.Schema, Blocks: pruned.Blocks}, 0.95), Run(other, pruned, 0.95); want.RowsScanned != got.RowsScanned {
		t.Fatalf("a foreign plan skipped its zone check: scanned %d, want %d", got.RowsScanned, want.RowsScanned)
	}
}

// TestScanShardsMatchesPartition pins the pricing partition ScanShards
// reports (used by ELP's latency attribution): the per-block-count layout
// of storage.PartitionBlocks at maxPartials, whatever the executor's own
// row-budgeted ranges are.
func TestScanShardsMatchesPartition(t *testing.T) {
	tab := randomWeightedTable(t, 4, 6000, 64)
	ranges, shards := ScanShards(tab.Blocks)
	wantRanges := storage.PartitionBlocks(len(tab.Blocks), maxPartials)
	if !reflect.DeepEqual(ranges, wantRanges) {
		t.Fatal("ScanShards ranges differ from the per-block-count partition")
	}
	covered := 0
	for _, s := range shards {
		covered += len(s.Ranges)
	}
	if covered != len(ranges) {
		t.Fatalf("shards cover %d of %d ranges", covered, len(ranges))
	}
}
