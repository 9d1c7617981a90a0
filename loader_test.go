package blinkdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"blinkdb/internal/colstore"
	"blinkdb/internal/sample"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// loaderColumns and loaderRows are a table that reaches what a load can
// encode: a Float column fed Go ints and floats around NULL runs, floats
// with NaN and both zeros, a sorted column (run-length encoded), a string
// column whose every row is new — each full chunk holds as many strings as
// a dictionary can — bools, low-cardinality strings with NULL runs, and
// ints narrow in the first chunk and wide after it.
func loaderColumns() []ColumnDef {
	return []ColumnDef{Col("mixed", Float), Col("f", Float), Col("sorted", Int), Col("uniq", String),
		Col("b", Bool), Col("city", String), Col("wide", Int)}
}

func loaderRows(n int) [][]any {
	rng := rand.New(rand.NewSource(11))
	negZero := math.Copysign(0, -1)
	rows := make([][]any, n)
	for i := range rows {
		var mixed any = i % 13
		switch {
		case (i/50)%9 == 0:
			mixed = nil
		case i%7 == 1:
			mixed = float64(i%13) + 0.5
		}
		var f any = rng.ExpFloat64()
		switch {
		case i%97 == 0:
			f = math.NaN()
		case i%89 == 0:
			f = negZero
		case i%89 == 1:
			f = 0.0
		case i%101 == 0:
			f = nil
		}
		var city any = fmt.Sprintf("city%02d", rng.Intn(40))
		if (i/300)%11 == 0 {
			city = nil
		}
		wide := int64(i % 1000)
		if i >= 1<<16 {
			wide = int64(i) * 1000003
		}
		rows[i] = []any{mixed, f, i / 1000, fmt.Sprintf("u%07d", i), rng.Intn(3) == 0, city, wide}
	}
	return rows
}

// loadTable loads rows with the given worker count and returns the table
// registered for them.
func loadTable(t *testing.T, workers int, rows [][]any) *storage.Table {
	t.Helper()
	_, tab := load(t, Open(Config{Workers: workers, Scale: 1e4}), rows)
	return tab
}

// load loads rows into eng as table t and returns the table the loader
// staged them in and the table Close registered.
func load(t *testing.T, eng *Engine, rows [][]any) (staged, registered *storage.Table) {
	t.Helper()
	l := eng.CreateTable("t", loaderColumns()...)
	staged = l.table
	for _, r := range rows {
		if err := l.Append(r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ent, err := eng.cat.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	return staged, ent.Table
}

// bitDiff names the first field where a and b differ, walking structs,
// slices, maps and pointers, with floats compared by bit pattern (NaN equals
// NaN, −0 is not +0) and a nil slice apart from an empty one; "" when
// they are equal.
func bitDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v, want %v", path, a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint8, reflect.Uint16, reflect.Uint32,
		reflect.Uint64, reflect.Bool, reflect.String:
		if !a.Equal(b) {
			return fmt.Sprintf("%s: %v, want %v", path, a, b)
		}
	case reflect.Pointer:
		return bitDiff(path, a.Elem(), b.Elem())
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d entries, want %d", path, a.Len(), b.Len())
		}
		for it := a.MapRange(); it.Next(); {
			w := b.MapIndex(it.Key())
			if !w.IsValid() {
				return fmt.Sprintf("%s: key %v not wanted", path, it.Key())
			}
			if d := bitDiff(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value(), w); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d (nil %v), want %d (nil %v)", path, a.Len(), a.IsNil(), b.Len(), b.IsNil())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	default:
		panic("bitDiff: unhandled kind " + a.Kind().String())
	}
	return ""
}

// TestLoaderWorkersBitIdentical holds a load at every worker count to the
// serial one: every chunk equal field for field, and every block the same
// window with the same zones, bytes and node. The row count is a multiple
// of neither the staging batch nor the chunk, and spans more than two
// chunks.
func TestLoaderWorkersBitIdentical(t *testing.T) {
	const n = 2<<16 + 5000
	if n%batchRows == 0 || n%(1<<16) == 0 {
		t.Fatal("the row count must leave a partial batch and a partial chunk")
	}
	rows := loaderRows(n)
	want := loadTable(t, 1, rows)
	wantChunks := want.Chunks()
	if len(wantChunks) <= 2 {
		t.Fatalf("%d chunks, want more than two", len(wantChunks))
	}
	encs := map[colstore.Encoding]bool{}
	for _, d := range wantChunks {
		for c := range d.Cols {
			encs[d.Cols[c].Enc] = true
		}
	}
	if uniq := &wantChunks[0].Cols[3]; len(uniq.Dict) != wantChunks[0].N || uniq.Codes16 == nil {
		t.Fatalf("the first chunk's %d rows have %d distinct strings", wantChunks[0].N, len(uniq.Dict))
	}
	for _, enc := range []colstore.Encoding{colstore.EncRLE, colstore.EncFloat,
		colstore.EncInt, colstore.EncBool, colstore.EncDict} {
		if !encs[enc] {
			t.Fatalf("no chunk column is encoded %v", enc)
		}
	}
	for _, workers := range []int{2, 4} {
		got := loadTable(t, workers, rows)
		gotChunks := got.Chunks()
		if got.NumRows() != want.NumRows() || got.Bytes() != want.Bytes() ||
			len(got.Blocks) != len(want.Blocks) || len(gotChunks) != len(wantChunks) {
			t.Fatalf("workers %d: %d rows, %d bytes, %d blocks, %d chunks; serially %d, %d, %d, %d", workers,
				got.NumRows(), got.Bytes(), len(got.Blocks), len(gotChunks),
				want.NumRows(), want.Bytes(), len(want.Blocks), len(wantChunks))
		}
		chunkOf := map[*colstore.Data]int{}
		for k := range wantChunks {
			chunkOf[gotChunks[k]], chunkOf[wantChunks[k]] = k, k
			if d := bitDiff("chunk", reflect.ValueOf(gotChunks[k]), reflect.ValueOf(wantChunks[k])); d != "" {
				t.Fatalf("workers %d chunk %d: %s", workers, k, d)
			}
		}
		for i, g := range got.Blocks {
			w := want.Blocks[i]
			if chunkOf[g.Chunk] != chunkOf[w.Chunk] || g.Off != w.Off || g.N != w.N ||
				g.Bytes != w.Bytes || g.Node != w.Node || g.Place != w.Place {
				t.Fatalf("workers %d block %d: chunk %d [%d,+%d) %d bytes on node %d; serially chunk %d [%d,+%d) %d bytes on node %d",
					workers, i, chunkOf[g.Chunk], g.Off, g.N, g.Bytes, g.Node, chunkOf[w.Chunk], w.Off, w.N, w.Bytes, w.Node)
			}
			if d := bitDiff("zones", reflect.ValueOf(g.Zones), reflect.ValueOf(w.Zones)); d != "" {
				t.Fatalf("workers %d block %d: %s", workers, i, d)
			}
		}
	}
}

// TestLoaderKeepsStagedChunks: Close encodes no row a second time. The
// registered table's chunks are the very ones the loader staged, and each
// is cut into blocks of one size — whole blocks, then a short last block
// wherever the chunk's rows are not a multiple of it.
func TestLoaderKeepsStagedChunks(t *testing.T) {
	staged, tab := load(t, Open(Config{Workers: 2, Scale: 1e4}), loaderRows(2<<16+5000))
	got, want := tab.Chunks(), staged.Chunks()
	if len(want) != 3 || len(got) != len(want) {
		t.Fatalf("%d chunks registered, %d staged; want 3", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("chunk %d is not the staged chunk: Close encoded its rows again", k)
		}
	}
	blocks := tab.Blocks
	rowsPerBlock := blocks[0].N
	if (1<<16)%rowsPerBlock == 0 {
		t.Fatalf("%d-row blocks tile a chunk: no chunk ends in a short block", rowsPerBlock)
	}
	for i, b := range blocks {
		last := i == len(blocks)-1 || blocks[i+1].Chunk != b.Chunk
		if b.N != rowsPerBlock && !(last && b.N < rowsPerBlock && b.Off+b.N == b.Chunk.N) {
			t.Fatalf("block %d: %d rows at %d of a %d-row chunk, want %d or a short last block", i, b.N, b.Off, b.Chunk.N, rowsPerBlock)
		}
	}
}

// TestLoadedFamiliesMatchBuilderLayout: sample families built on a loaded
// table, whose chunks end in short blocks, are bit for bit the families
// built on the same rows laid out by storage.NewBuilder at the same block
// size and striping, whose chunks hold whole blocks: a family reads its
// base's rows in order, not where its chunks end.
func TestLoadedFamiliesMatchBuilderLayout(t *testing.T) {
	rows := loaderRows(2<<16 + 5000)
	eng := Open(Config{Workers: 2, Scale: 1e4})
	_, loaded := load(t, eng, rows)
	rowsPerBlock := loaded.Blocks[0].N
	b := storage.NewBuilder(storage.NewTable("t", loaded.Schema), rowsPerBlock, eng.nodes(), storage.OnDisk)
	row := make(types.Row, loaded.Schema.Len())
	for _, r := range rows {
		for i, v := range r {
			if row[i], _ = toValue(v); row[i].Kind != loaded.Schema.Columns[i].Kind {
				row[i], _ = toKind(row[i], loaded.Schema.Columns[i].Kind)
			}
		}
		b.AppendRow(row)
	}
	built := b.Finish()
	short := 0 // loaded blocks cut short by a chunk's end
	for _, blk := range loaded.Blocks[:len(loaded.Blocks)-1] {
		if blk.N != rowsPerBlock {
			short++
		}
	}
	if len(loaded.Chunks()) != 3 || short == 0 {
		t.Fatalf("%d chunks in %d blocks loaded, none short before the last: the layouts do not differ",
			len(loaded.Chunks()), len(loaded.Blocks))
	}
	cfg := sample.BuildConfig{RowsPerBlock: rowsPerBlock, Nodes: eng.nodes(), Seed: 5}
	for _, phi := range []types.ColumnSet{types.NewColumnSet(), types.NewColumnSet("city"), types.NewColumnSet("b", "city")} {
		caps := []int64{20, 60, 150}
		if phi.Empty() {
			caps = []int64{500, 2000, 6000}
		}
		want, err := sample.Build(built, phi, caps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sample.Build(loaded, phi, caps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := bitDiff("family", reflect.ValueOf(got), reflect.ValueOf(want)); d != "" {
			t.Fatalf("φ %s: %s", phi.Key(), d)
		}
	}
}

// waitGoroutines waits until no more than want goroutines run: a goroutine
// that has signalled it is done may not have exited yet. It fails the test
// when that takes a second.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > want; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the load", runtime.NumGoroutine(), want)
		}
	}
}

// TestLoaderLifecycle: a bad value in the middle of a batch, with the
// previous batch still encoding, fails Append at that row, Close returns
// the same error and registers nothing, and no goroutine outlives Close,
// on error or on success. With one worker the loader starts none at all.
func TestLoaderLifecycle(t *testing.T) {
	rows := loaderRows(3*batchRows + 100)
	baseline := runtime.NumGoroutine()

	eng := Open(Config{Workers: 4})
	load := eng.CreateTable("t", loaderColumns()...)
	bad := batchRows + 100
	for i, r := range rows[:bad] {
		if err := load.Append(r...); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	row := append([]any(nil), rows[bad]...)
	row[4] = struct{}{}
	appendErr := load.Append(row...)
	if appendErr == nil {
		t.Fatal("a struct value was accepted")
	}
	if err := load.Close(); err != appendErr {
		t.Fatalf("Close returned %v, want Append's %v", err, appendErr)
	}
	if _, err := eng.TableRows("t"); err == nil {
		t.Error("a failed load registered its table")
	}
	waitGoroutines(t, baseline)

	for _, workers := range []int{1, 4} {
		eng := Open(Config{Workers: workers})
		load := eng.CreateTable("t", loaderColumns()...)
		for i, r := range rows {
			if err := load.Append(r...); err != nil {
				t.Fatal(err)
			}
			if workers == 1 && (i+1)%batchRows == 0 && runtime.NumGoroutine() > baseline {
				t.Fatalf("one worker: %d goroutines after a batch, %d before the load", runtime.NumGoroutine(), baseline)
			}
		}
		if err := load.Close(); err != nil {
			t.Fatal(err)
		}
		if n, err := eng.TableRows("t"); err != nil || n != int64(len(rows)) {
			t.Fatalf("workers %d: %d rows (%v), want %d", workers, n, err, len(rows))
		}
		waitGoroutines(t, baseline)
	}
}

// TestLoaderHonoursColumnTypes: a value of another kind than its column's
// is refused with an error that names the column — a String column takes
// no Go int, an Int column no float — and the loader registers nothing.
// A Float column converts Go integers, so one fed ints on some rows is
// stored as floats (EncFloat), not as verbatim values compared cell by
// cell. nil is NULL in any column.
func TestLoaderHonoursColumnTypes(t *testing.T) {
	cols := []ColumnDef{Col("i", Int), Col("f", Float), Col("s", String), Col("b", Bool)}
	good := []any{int64(1), 2.5, "x", true}
	for c, bad := range [][]any{
		{"1", 1.5, float32(2), true},
		{"2.5", true, false},
		{3, int64(4), 2.5, false},
		{1, "true", 0.0},
	} {
		for _, v := range bad {
			eng := Open(Config{Workers: 1})
			l := eng.CreateTable("t", cols...)
			row := slices.Clone(good)
			row[c] = v
			if err := l.Append(row...); err == nil || !strings.Contains(err.Error(), "column "+cols[c].Name+":") {
				t.Errorf("%T %v in column %s: err %v, want one naming the column", v, v, cols[c].Name, err)
			}
			if err := l.Close(); err == nil {
				t.Errorf("%T %v in column %s: Close succeeded", v, v, cols[c].Name)
			}
			if _, err := eng.TableRows("t"); err == nil {
				t.Errorf("%T %v in column %s: the table was registered", v, v, cols[c].Name)
			}
		}
	}

	eng := Open(Config{Workers: 1})
	l := eng.CreateTable("t", cols...)
	const n = 1000
	sum := 0.0
	for r := range n {
		var f any
		switch r % 5 {
		case 0:
			f = r
		case 1:
			f = int32(r)
		case 2:
			f = int64(r)
		case 3:
			f = float64(r) + 0.5
		}
		if f != nil {
			sum += float64(r) + float64(r%5/3)*0.5
		}
		if err := l.Append(nil, f, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ent, err := eng.cat.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ent.Table.Chunks() {
		if enc := d.Cols[1].Enc; enc != colstore.EncFloat {
			t.Errorf("the int-fed Float column is encoded %v, want %v", enc, colstore.EncFloat)
		}
	}
	res, err := eng.Query(`SELECT SUM(f), COUNT(f) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0].Cells; got[0].Value != sum || got[1].Value != 4*n/5 {
		t.Errorf("SUM, COUNT = %v, %v; want %v, %d", got[0].Value, got[1].Value, sum, 4*n/5)
	}
}
