package exec

import (
	"testing"

	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

func predOf(t *testing.T, where string) types.Predicate {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindString},
		types.Column{Name: "c", Kind: types.KindFloat},
	)
	q, err := sqlparser.Parse("SELECT COUNT(*) FROM t WHERE " + where)
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Where.Resolve(schema)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestColumnBoundsEquality(t *testing.T) {
	b := ColumnBounds(predOf(t, "a = 5"))
	if len(b) != 1 {
		t.Fatalf("bounds = %v", b)
	}
	ab := b[0]
	if ab.Lo == nil || ab.Hi == nil || ab.Lo.I != 5 || ab.Hi.I != 5 {
		t.Errorf("equality bounds = %+v", ab)
	}
	if ab.LoOpen || ab.HiOpen {
		t.Error("equality bounds must be closed")
	}
}

func TestColumnBoundsRangeConjunction(t *testing.T) {
	b := ColumnBounds(predOf(t, "a > 3 AND a <= 10 AND a >= 4"))
	ab := b[0]
	if ab.Lo.I != 4 || ab.LoOpen {
		t.Errorf("lo = %v open=%v, want closed 4", ab.Lo, ab.LoOpen)
	}
	if ab.Hi.I != 10 || ab.HiOpen {
		t.Errorf("hi = %v open=%v, want closed 10", ab.Hi, ab.HiOpen)
	}
	// Tightening with equal value but open.
	b2 := ColumnBounds(predOf(t, "a >= 4 AND a > 4"))
	if !b2[0].LoOpen {
		t.Error("a > 4 after a >= 4 should leave an open bound")
	}
}

func TestColumnBoundsORContributesNothing(t *testing.T) {
	b := ColumnBounds(predOf(t, "a = 1 OR a = 2"))
	if len(b) != 0 {
		t.Errorf("OR should give no bounds, got %v", b)
	}
	// Mixed: conjunct next to an OR keeps its own bounds.
	b = ColumnBounds(predOf(t, "b = 'x' AND (a = 1 OR a = 2)"))
	if len(b) != 1 {
		t.Fatalf("bounds = %v", b)
	}
}

func TestColumnBoundsNeIgnored(t *testing.T) {
	if b := ColumnBounds(predOf(t, "a <> 5")); len(b) != 1 || b[0].Lo != nil || b[0].Hi != nil {
		t.Errorf("<> should yield unbounded interval, got %+v", b)
	}
}

// mkBlock returns a two-row block (a, b) whose zones are a ∈ [aMin, aMax]
// and b = 'm'.
func mkBlock(aMin, aMax int64) *storage.Block {
	tab := storage.NewTable("t", types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindString},
	))
	bld := storage.NewBuilder(tab, 2, 1, storage.InMemory)
	bld.AppendRow(types.Row{types.Int(aMin), types.Str("m")})
	bld.AppendRow(types.Row{types.Int(aMax), types.Str("m")})
	return bld.Finish().Blocks[0]
}

func TestPruneBlocks(t *testing.T) {
	blocks := []*storage.Block{
		mkBlock(0, 9), mkBlock(10, 19), mkBlock(20, 29),
	}
	bounds := ColumnBounds(predOf(t, "a = 15"))
	kept, frac := pruneBlocks(blocks, boundList(bounds))
	if len(kept) != 1 || kept[0] != blocks[1] {
		t.Fatalf("kept = %d blocks", len(kept))
	}
	if frac < 0.6 || frac > 0.7 {
		t.Errorf("pruned fraction = %g, want 2/3", frac)
	}
	// Range crossing two blocks.
	bounds = ColumnBounds(predOf(t, "a >= 8 AND a < 12"))
	kept, _ = pruneBlocks(blocks, boundList(bounds))
	if len(kept) != 2 {
		t.Errorf("range kept %d blocks, want 2", len(kept))
	}
	// Open bound excluding a block boundary: a > 9 excludes block 0... its
	// zone max is 9, and the bound is open at 9 → pruned.
	bounds = ColumnBounds(predOf(t, "a > 9"))
	kept, _ = pruneBlocks(blocks, boundList(bounds))
	if len(kept) != 2 {
		t.Errorf("open bound kept %d blocks, want 2", len(kept))
	}
	// Nothing pruned: the input comes back as it is, uncopied. A pruned
	// list is the caller's own and leaves the input alone.
	kept, frac = pruneBlocks(blocks, boundList(ColumnBounds(predOf(t, "a >= 0"))))
	if len(kept) != 3 || &kept[0] != &blocks[0] || frac != 0 {
		t.Errorf("unpruned list was copied (or pruned: %d blocks, fraction %g)", len(kept), frac)
	}
	kept, _ = pruneBlocks(blocks, boundList(ColumnBounds(predOf(t, "a < 20"))))
	if len(kept) != 2 || kept[0] != blocks[0] || kept[1] != blocks[1] || &kept[0] == &blocks[0] {
		t.Errorf("pruning the last block kept %d blocks, in the input's array: %v", len(kept), &kept[0] == &blocks[0])
	}
}

func TestPruneBlocksKeepsUnzoned(t *testing.T) {
	noZones := &storage.Block{Bytes: 50} // e.g. legacy block
	blocks := []*storage.Block{noZones, mkBlock(0, 9)}
	bounds := ColumnBounds(predOf(t, "a = 100"))
	kept, _ := pruneBlocks(blocks, boundList(bounds))
	if len(kept) != 1 || kept[0] != noZones {
		t.Error("blocks without zone maps must be kept (correctness over savings)")
	}
}

func TestPruneBlocksNoBoundsNoPruning(t *testing.T) {
	blocks := []*storage.Block{mkBlock(0, 9), mkBlock(10, 19)}
	kept, frac := pruneBlocks(blocks, boundList(nil))
	if len(kept) != 2 || frac != 0 {
		t.Error("no bounds should keep everything")
	}
	// Empty block list.
	kept, frac = pruneBlocks(nil, boundList(ColumnBounds(predOf(t, "a = 1"))))
	if len(kept) != 0 || frac != 0 {
		t.Error("empty input should be a no-op")
	}
}

// TestPruningNeverChangesResults property-checks safety: running a plan
// over pruned blocks gives identical results to running over all blocks.
func TestPruningNeverChangesResults(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindString},
		types.Column{Name: "c", Kind: types.KindFloat},
	)
	tab := storage.NewTable("t", schema)
	bld := storage.NewBuilder(tab, 16, 2, storage.InMemory)
	for i := 0; i < 1000; i++ {
		bld.AppendRow(types.Row{
			types.Int(int64(i % 50)),
			types.Str(string(rune('a' + i%7))),
			types.Float(float64(i)),
		})
	}
	bld.Finish()
	for _, where := range []string{
		"a = 25", "a > 40", "a >= 10 AND a < 20", "b = 'c'",
		"a = 5 AND b = 'b'", "a = 5 OR a = 45", "NOT a = 3",
	} {
		q, err := sqlparser.Parse("SELECT COUNT(*), SUM(c) FROM t WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Compile(q, schema)
		if err != nil {
			t.Fatal(err)
		}
		full := RunParallel(plan, FromTable(tab), 0.95, 1)
		kept := plan.Prune(tab.Blocks)
		pruned := RunParallel(plan, Input{Schema: schema, Blocks: kept}, 0.95, 1)
		if full.Groups[0].Estimates[0].Point != pruned.Groups[0].Estimates[0].Point ||
			full.Groups[0].Estimates[1].Point != pruned.Groups[0].Estimates[1].Point {
			t.Errorf("WHERE %s: pruning changed the answer", where)
		}
	}
}

// TestShortRowPaddingIsInTheZone: a row narrower than the schema is padded
// with NULLs, and those NULLs are values of their columns like any other —
// the block's zone must bracket them. When it left them out, [AA, ZZ]
// "proved" city >= 'AA' for every row of the block and the padded row was
// counted (3, not 2).
func TestShortRowPaddingIsInTheZone(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "city", Kind: types.KindString},
	)
	tab := storage.NewTable("z", schema)
	b := storage.NewBuilder(tab, 8, 1, storage.OnDisk)
	b.AppendRow(types.Row{types.Int(5)}) // no city
	b.AppendRow(types.Row{types.Int(1), types.Str("AA")})
	b.AppendRow(types.Row{types.Int(9), types.Str("ZZ")})
	b.Finish()
	for _, src := range []string{
		`SELECT COUNT(*) FROM z WHERE city >= 'AA'`,
		`SELECT COUNT(*) FROM z WHERE city < 'B'`,
		`SELECT COUNT(*), SUM(id) FROM z WHERE city <> 'ZZ' GROUP BY city`,
	} {
		checkOracle(t, src, compile(t, src, schema), FromTable(tab), nil)
	}
}
