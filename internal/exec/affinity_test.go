package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// reorderByNode rebuilds a table's block list grouped by node — a skewed,
// non-round-robin placement that makes node shards span multiple
// contiguous ranges (placement must never reach the scan partition).
func reorderByNode(t testing.TB, tab *storage.Table) *storage.Table {
	t.Helper()
	out := storage.NewTable(tab.Name, tab.Schema)
	maxNode := 0
	for _, b := range tab.Blocks {
		if b.Node > maxNode {
			maxNode = b.Node
		}
	}
	for n := 0; n <= maxNode; n++ {
		for _, b := range tab.Blocks {
			if b.Node == n {
				cp := *b
				out.AddBlock(&cp)
			}
		}
	}
	return out
}

// TestAffinityEquivalence: the node-affine schedule returns bit-identical
// Results to the node-blind schedule for worker counts 1, 2 and 8 (and
// more workers than ranges), across query shapes, block layouts and
// placements. The executor no longer tells the two apart (see Sched); the
// sweep keeps that a tested fact rather than a comment.
func TestAffinityEquivalence(t *testing.T) {
	for _, rowsPerBlock := range []int{64, 509} {
		base := randomWeightedTable(t, 4, 6000, rowsPerBlock)
		for _, tab := range []*storage.Table{base, reorderByNode(t, base), columnarClone(t, base, rowsPerBlock, 4)} {
			for _, src := range equivalenceQueries {
				p := compile(t, src, tab.Schema)
				in := FromTable(tab)
				want := RunParallelSched(p, in, 0.95, 1, SchedBlind)
				for _, w := range []int{1, 2, 8, 1 << 10} {
					got := RunParallelSched(p, in, 0.95, w, SchedNodeAffine)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("rpb=%d workers=%d query=%q: affine result diverged from blind\nwant %+v\ngot  %+v",
							rowsPerBlock, w, src, want, got)
					}
					blind := RunParallelSched(p, in, 0.95, w, SchedBlind)
					if !reflect.DeepEqual(want, blind) {
						t.Fatalf("rpb=%d workers=%d query=%q: blind result diverged across workers",
							rowsPerBlock, w, src)
					}
				}
			}
		}
	}
}

// TestAffinityJoinEquivalence covers the join path: affine and blind
// schedules agree bit-for-bit while dimension rows are hash-joined in.
func TestAffinityJoinEquivalence(t *testing.T) {
	fact := randomWeightedTable(t, 11, 4000, 97)
	dimSchema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "region", Kind: types.KindString},
	)
	dim := storage.NewTable("regions", dimSchema)
	db := storage.NewBuilder(dim, 16, 2, storage.InMemory)
	for _, c := range []struct{ city, region string }{
		{"NY", "east"}, {"SF", "west"}, {"LA", "west"}, {"Austin", "south"},
	} {
		db.AppendRow(types.Row{types.Str(c.city), types.Str(c.region)})
	}
	db.Finish()

	combined, _, err := JoinedSchema(fact.Schema, []*storage.Table{dim})
	if err != nil {
		t.Fatal(err)
	}
	ci := fact.Schema.Index("city")
	ri := dim.Schema.Index("city")
	spec := JoinSpec{Dim: dim, LeftCol: ci, RightCol: ri}
	p := compile(t, `SELECT COUNT(*), AVG(sessiontime) FROM sessions WHERE code < 700 GROUP BY region`, combined)
	in := FromTable(fact)

	want := RunJoinParallelSched(p, in, []JoinSpec{spec}, 0.95, 1, SchedBlind)
	for _, w := range []int{1, 2, 8} {
		got := RunJoinParallelSched(p, in, []JoinSpec{spec}, 0.95, w, SchedNodeAffine)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: affine join result diverged", w)
		}
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

// randomPlacementTable builds a columnar table with blocks assigned to
// random nodes — worst-case shard imbalance for the pricing partition.
func randomPlacementTable(t testing.TB, seed int64, rows int) *storage.Table {
	t.Helper()
	tab := randomWeightedTable(t, seed, rows, 64)
	rng := rand.New(rand.NewSource(seed))
	for _, b := range tab.Blocks {
		b.Node = rng.Intn(5)
	}
	return tab
}

// TestAffinityRandomPlacement: equivalence must hold for arbitrary
// (non-round-robin) node assignments too.
func TestAffinityRandomPlacement(t *testing.T) {
	tab := randomPlacementTable(t, 21, 5000)
	p := compile(t, `SELECT SUM(sessiontime), MEDIAN(sessiontime) FROM sessions WHERE code < 800 GROUP BY city`, tab.Schema)
	in := FromBlocks(tab.Schema, tab.Blocks, 400)
	want := RunParallelSched(p, in, 0.95, 1, SchedBlind)
	for _, w := range []int{2, 3, 8} {
		if got := RunParallelSched(p, in, 0.95, w, SchedNodeAffine); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: affine result diverged under random placement", w)
		}
	}
}

func BenchmarkRunParallelAffine(b *testing.B) {
	row := randomWeightedTable(b, 9, 200000, 2048)
	col := columnarClone(b, row, 2048, 4)
	p := compile(b, `SELECT COUNT(*), SUM(sessiontime), AVG(sessiontime) FROM sessions WHERE code < 900 GROUP BY city`, row.Schema)
	in := FromTable(col)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RunParallelSched(p, in, 0.95, w, SchedNodeAffine)
			}
			b.SetBytes(int64(col.Bytes()))
		})
	}
}

func BenchmarkRunParallelBlind(b *testing.B) {
	row := randomWeightedTable(b, 9, 200000, 2048)
	col := columnarClone(b, row, 2048, 4)
	p := compile(b, `SELECT COUNT(*), SUM(sessiontime), AVG(sessiontime) FROM sessions WHERE code < 900 GROUP BY city`, row.Schema)
	in := FromTable(col)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RunParallelSched(p, in, 0.95, w, SchedBlind)
			}
			b.SetBytes(int64(col.Bytes()))
		})
	}
}
