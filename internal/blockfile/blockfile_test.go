package blockfile

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"blinkdb/internal/colstore"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// buildFixture assembles a table that exercises every encoding: a float
// column with NaN/-0/nulls, an int column with nulls, a bool column, a
// dict string column, a mixed-kind column (EncValue fallback), and a
// sorted low-cardinality column that RLE-compresses under the builder's
// hint. Blocks are small so several are produced, across 3 nodes.
func buildFixture(t testing.TB, rows int) *storage.Table {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "f", Kind: types.KindFloat},
		types.Column{Name: "i", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindBool},
		types.Column{Name: "s", Kind: types.KindString},
		types.Column{Name: "mix", Kind: types.KindString},
		types.Column{Name: "sorted", Kind: types.KindString},
	)
	tbl := storage.NewTable("fixture", schema)
	bld := storage.NewBuilder(tbl, 64, 3, storage.InMemory)
	bld.HintSortedColumns(5)
	for r := 0; r < rows; r++ {
		f := types.Float(float64(r) * 1.5)
		switch r % 17 {
		case 3:
			f = types.Null()
		case 5:
			f = types.Float(math.NaN())
		case 7:
			f = types.Float(math.Copysign(0, -1))
		}
		i := types.Int(int64(r * 3))
		if r%13 == 4 {
			i = types.Null()
		}
		mix := types.Value(types.Int(int64(r)))
		switch r % 5 {
		case 1:
			mix = types.Str(fmt.Sprintf("m%d", r%7))
		case 2:
			mix = types.Float(float64(r) / 3)
		case 3:
			mix = types.Null()
		}
		bld.Append(types.Row{
			f, i, types.Bool(r%2 == 0),
			types.Str(fmt.Sprintf("s%02d", r%23)),
			mix,
			types.Str(fmt.Sprintf("stratum%d", r/97)),
		}, storage.RowMeta{Rate: 1 / (1 + float64(r%9)), StratumFreq: int64(r % 11)})
	}
	return bld.Finish()
}

func writeFixture(t testing.TB, tbl *storage.Table) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fixture.seg")
	err := WriteSegment(path, func(w *Writer) error {
		w.PutMeta("note", []byte("fixture-meta"))
		return w.AddTable(tbl)
	})
	if err != nil {
		t.Fatalf("WriteSegment: %v", err)
	}
	return path
}

// valueEq is exact struct equality with floats compared by bit pattern,
// so NaN payloads (which the fixture deliberately contains, and which
// reflect.DeepEqual would treat as unequal to themselves) round-trip.
func valueEq(a, b types.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func rowsEq(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !valueEq(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

func zonesEq(a, b []storage.Zone) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Valid != b[i].Valid || !valueEq(a[i].Min, b[i].Min) || !valueEq(a[i].Max, b[i].Max) {
			return false
		}
	}
	return true
}

// scanAll materializes every (row, meta) pair — the observable content
// of a table.
func scanAll(tbl *storage.Table) ([]types.Row, []storage.RowMeta) {
	var rows []types.Row
	var metas []storage.RowMeta
	tbl.Scan(func(r types.Row, m storage.RowMeta) bool {
		rows = append(rows, append(types.Row(nil), r...))
		metas = append(metas, m)
		return true
	})
	return rows, metas
}

func assertTablesEqual(t *testing.T, want, got *storage.Table) {
	t.Helper()
	if got.Name != want.Name {
		t.Fatalf("name %q != %q", got.Name, want.Name)
	}
	if !reflect.DeepEqual(got.Schema.Columns, want.Schema.Columns) {
		t.Fatalf("schema %v != %v", got.Schema.Columns, want.Schema.Columns)
	}
	if got.NumRows() != want.NumRows() || got.Bytes() != want.Bytes() {
		t.Fatalf("totals (%d rows, %d bytes) != (%d rows, %d bytes)",
			got.NumRows(), got.Bytes(), want.NumRows(), want.Bytes())
	}
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("%d blocks != %d", len(got.Blocks), len(want.Blocks))
	}
	for i, wb := range want.Blocks {
		gb := got.Blocks[i]
		if gb.ID != wb.ID || gb.Node != wb.Node || gb.Place != wb.Place || gb.Bytes != wb.Bytes {
			t.Fatalf("block %d identity mismatch: %+v vs %+v", i, gb, wb)
		}
		if !zonesEq(gb.Zones, wb.Zones) {
			t.Fatalf("block %d zones mismatch", i)
		}
		if gb.Off != wb.Off || gb.N != wb.N {
			t.Fatalf("block %d window [%d,+%d) != [%d,+%d)", i, gb.Off, gb.N, wb.Off, wb.N)
		}
	}
	wantChunks, gotChunks := want.Chunks(), got.Chunks()
	if len(gotChunks) != len(wantChunks) {
		t.Fatalf("%d chunks != %d", len(gotChunks), len(wantChunks))
	}
	for i, wc := range wantChunks {
		gc := gotChunks[i]
		for c := range wc.Cols {
			if gc.Cols[c].Enc != wc.Cols[c].Enc {
				t.Fatalf("chunk %d col %d encoding %v != %v", i, c, gc.Cols[c].Enc, wc.Cols[c].Enc)
			}
			if gc.Cols[c].NaNFree != wc.Cols[c].NaNFree {
				t.Fatalf("chunk %d col %d NaNFree mismatch", i, c)
			}
			g, w := &gc.Cols[c], &wc.Cols[c]
			if g.Base != w.Base || !reflect.DeepEqual(g.Offs, w.Offs) || !reflect.DeepEqual(g.Ints, w.Ints) || !reflect.DeepEqual(g.Nulls, w.Nulls) {
				t.Fatalf("chunk %d col %d int payload or nulls differ (narrow %v, want %v)", i, c, g.Narrow(), w.Narrow())
			}
			if !reflect.DeepEqual(g.Codes8, w.Codes8) || !reflect.DeepEqual(g.Codes16, w.Codes16) {
				t.Fatalf("chunk %d col %d dictionary codes differ (1-byte %v, want %v)", i, c, g.Codes8 != nil, w.Codes8 != nil)
			}
		}
		if !reflect.DeepEqual(gc.MetaEnds, wc.MetaEnds) {
			t.Fatalf("chunk %d metadata runs differ", i)
		}
	}
	wantRows, wantMeta := scanAll(want)
	gotRows, gotMeta := scanAll(got)
	if !rowsEq(gotRows, wantRows) {
		t.Fatalf("scanned rows differ")
	}
	if !reflect.DeepEqual(gotMeta, wantMeta) {
		t.Fatalf("scanned row metadata differs")
	}
}

// TestRoundTrip pins build → persist → load equivalence for every
// encoding and both load paths (mmap, ReadFile).
// openReadFile loads the segment without mmap: the in-memory fallback
// that Open takes when mapping fails.
func openReadFile(path string) (*Segment, error) { return open(path, true) }

func TestRoundTrip(t *testing.T) {
	for _, mode := range []string{"mmap", "readfile"} {
		t.Run(mode, func(t *testing.T) {
			want := buildFixture(t, 500)
			path := writeFixture(t, want)
			var seg *Segment
			var err error
			if mode == "mmap" {
				seg, err = Open(path)
			} else {
				seg, err = openReadFile(path)
			}
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer seg.Close()
			if mode == "readfile" && seg.mapped {
				t.Fatal("the read-file path produced a mapped segment")
			}
			if blob, ok := seg.Meta("note"); !ok || string(blob) != "fixture-meta" {
				t.Fatalf("meta blob lost: %q %v", blob, ok)
			}
			if seg.NumTables() != 1 || seg.tables[0].name != "fixture" {
				t.Fatalf("table index wrong: %d tables", seg.NumTables())
			}
			got, err := seg.Table(0)
			if err != nil {
				t.Fatalf("Table: %v", err)
			}
			assertTablesEqual(t, want, got)
		})
	}
}

// TestNarrowIntsRoundTrip: int columns on both sides of the 16-bit window
// rule — a span of exactly 65,535 and of 65,536, windows at each end of
// int64, NULLs after a leading NULL run — and a bool column round-trip
// through both load paths field for field: Base and offsets, or int64s.
func TestNarrowIntsRoundTrip(t *testing.T) {
	cols := []struct {
		name   string
		base   int64
		span   uint64
		nulls  bool
		narrow bool
	}{
		{"span65535", 1000, 65535, false, true},
		{"span65536", 1000, 65536, false, false},
		{"bottom", math.MinInt64, 65535, true, true},
		{"top", math.MaxInt64 - 65535, 65535, false, true},
	}
	schema := make([]types.Column, 0, len(cols)+1)
	for _, c := range cols {
		schema = append(schema, types.Column{Name: c.name, Kind: types.KindInt})
	}
	schema = append(schema, types.Column{Name: "flag", Kind: types.KindBool})
	want := storage.NewTable("narrow", types.NewSchema(schema...))
	b := storage.NewBuilder(want, 100, 3, storage.InMemory)
	const rows = 1500
	for i := 0; i < rows; i++ {
		row := make(types.Row, 0, len(schema))
		for _, c := range cols {
			off := uint64(i*7919) % (c.span + 1)
			if i == 1 {
				off = c.span
			}
			v := types.Int(int64(uint64(c.base) + off))
			if c.nulls && (i < 40 || i%11 == 0) && i != 1 && i != 99 {
				v = types.Null()
			}
			row = append(row, v)
		}
		row = append(row, types.Bool(i%3 == 0))
		if i%5 == 0 {
			row[len(cols)] = types.Null()
		}
		b.Append(row, storage.RowMeta{Rate: 0.25, StratumFreq: 4})
	}
	want = b.Finish()
	d := want.Chunks()[0]
	for ci, c := range cols {
		if d.Cols[ci].Narrow() != c.narrow {
			t.Fatalf("column %s: narrow %v, want %v", c.name, d.Cols[ci].Narrow(), c.narrow)
		}
	}
	if !d.Cols[len(cols)].Narrow() {
		t.Fatal("the bool column is not narrow")
	}
	path := writeFixture(t, want)
	for name, open := range map[string]func(string) (*Segment, error){"mmap": Open, "readfile": openReadFile} {
		seg, err := open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := seg.Table(0)
		if err != nil {
			t.Fatalf("%s: Table: %v", name, err)
		}
		assertTablesEqual(t, want, got)
		seg.Close()
	}
}

// TestDictCodeWidthRoundTrip: dictionary columns on both sides of the
// 1-byte code rule — 256 distinct strings (1-byte codes) and 257 (2-byte),
// each with NULLs — round-trip through both load paths field for field,
// and a mapped segment's 1-byte codes are a view of the mapping, not a
// copy.
func TestDictCodeWidthRoundTrip(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "s256", Kind: types.KindString},
		types.Column{Name: "s257", Kind: types.KindString},
	)
	want := storage.NewTable("codes", schema)
	b := storage.NewBuilder(want, 100, 3, storage.InMemory)
	for i := 0; i < 1500; i++ {
		row := types.Row{types.Str(fmt.Sprintf("a%03d", i%256)), types.Str(fmt.Sprintf("b%03d", i%257))}
		if i%13 == 12 {
			row[0] = types.Null()
		}
		if i%17 == 16 {
			row[1] = types.Null()
		}
		b.Append(row, storage.RowMeta{Rate: 0.5, StratumFreq: 2})
	}
	want = b.Finish()
	d := want.Chunks()[0]
	if c := &d.Cols[0]; c.Codes8 == nil || len(c.Dict) != colstore.MaxDict8 {
		t.Fatalf("s256: %d entries, 1-byte codes %v", len(c.Dict), c.Codes8 != nil)
	}
	if c := &d.Cols[1]; c.Codes16 == nil || len(c.Dict) != colstore.MaxDict8+1 {
		t.Fatalf("s257: %d entries, 2-byte codes %v", len(c.Dict), c.Codes16 != nil)
	}
	path := writeFixture(t, want)
	for name, open := range map[string]func(string) (*Segment, error){"mmap": Open, "readfile": openReadFile} {
		seg, err := open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := seg.Table(0)
		if err != nil {
			t.Fatalf("%s: Table: %v", name, err)
		}
		assertTablesEqual(t, want, got)
		codes := got.Chunks()[0].Cols[0].Codes8
		lo, hi := uintptr(unsafe.Pointer(&seg.data[0])), uintptr(unsafe.Pointer(&seg.data[len(seg.data)-1]))
		if at := uintptr(unsafe.Pointer(&codes[0])); at < lo || at > hi || cap(codes) != len(codes) {
			t.Fatalf("%s: the 1-byte codes are not a capped view of the segment", name)
		}
		seg.Close()
	}
}

// TestDictCodeOutOfRangeRejected: a dictionary code not below the
// dictionary's size, in either width, and 1-byte codes over a dictionary
// larger than they reach — no builder writes either — fail to load
// cleanly.
func TestDictCodeOutOfRangeRejected(t *testing.T) {
	for _, tc := range []struct {
		col  colstore.Column
		want string
	}{
		{colstore.Column{Enc: colstore.EncDict, Codes8: []uint8{0, 2}, Dict: []string{"a", "b"}, NaNFree: true}, "out of range"},
		{colstore.Column{Enc: colstore.EncDict, Codes16: []uint16{0, 300}, Dict: []string{"a", "b"}, NaNFree: true}, "out of range"},
		{bigDict8Column(), "more than 1-byte codes reach"},
	} {
		col := tc.col
		seg, err := Open(writeFixture(t, badCodeTable(col)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seg.Table(0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("codes %v %v over %d entries loaded: err %v, want %q", col.Codes8, col.Codes16, len(col.Dict), err, tc.want)
		}
		seg.Close()
	}
}

// bigDict8Column returns a two-row dictionary column of 1-byte codes 0
// and 44 over a dictionary of MaxDict8+44 entries: each code is in range,
// but the dictionary is larger than 1-byte codes reach, so a constant at
// entry MaxDict8+44 would read as code 44.
func bigDict8Column() colstore.Column {
	dict := make([]string, colstore.MaxDict8+45)
	for i := range dict {
		dict[i] = fmt.Sprintf("s%03d", i)
	}
	dict[0], dict[1] = "a", "b"
	return colstore.Column{Enc: colstore.EncDict, Codes8: []uint8{0, 44}, Dict: dict, NaNFree: true}
}

// badCodeTable wraps a two-row dictionary column, whatever its codes, as
// a one-block table.
func badCodeTable(col colstore.Column) *storage.Table {
	d := &colstore.Data{N: 2, Cols: []colstore.Column{col}, MetaEnds: []int32{2}, Rates: []float64{1}, Freqs: []int64{1}}
	tbl := storage.NewTable("forged", types.NewSchema(types.Column{Name: "s", Kind: types.KindString}))
	tbl.AddBlock(&storage.Block{Chunk: d, N: 2, Zones: []storage.Zone{{Min: types.Str("a"), Max: types.Str("b"), Valid: true}}})
	return tbl
}

// TestDictionaryOverflowRoundTrip: a table whose one priced block is
// larger than a storage chunk, so that a string column with more distinct
// values than 16-bit codes reach is stored verbatim beside a dictionary
// column, round-trips exactly through both load paths.
func TestDictionaryOverflowRoundTrip(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindString},
		types.Column{Name: "city", Kind: types.KindString},
	)
	const rows = colstore.MaxDict + 5000
	want := storage.NewTable("overflow", schema)
	b := storage.NewBuilder(want, rows, 3, storage.InMemory)
	for i := 0; i < rows; i++ {
		id := types.Str(fmt.Sprintf("k%06d", i))
		if i%1000 == 7 {
			id = types.Null()
		}
		b.Append(types.Row{id, types.Str([]string{"NY", "SF", "LA"}[i%3])}, storage.RowMeta{Rate: 0.5, StratumFreq: 3})
	}
	want = b.Finish()
	if cols := want.Chunks()[0].Cols; cols[0].Enc != colstore.EncValue || cols[1].Enc != colstore.EncDict {
		t.Fatalf("encodings %v %v, want value and dict", cols[0].Enc, cols[1].Enc)
	}
	path := writeFixture(t, want)
	for name, open := range map[string]func(string) (*Segment, error){"mmap": Open, "readfile": openReadFile} {
		seg, err := open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := seg.Table(0)
		if err != nil {
			t.Fatalf("%s: Table: %v", name, err)
		}
		assertTablesEqual(t, want, got)
		seg.Close()
	}
}

// TestOversizedDictionaryRejected: a dictionary with more entries than
// 16-bit codes reach — no builder makes one — fails to load, cleanly.
func TestOversizedDictionaryRejected(t *testing.T) {
	dict := make([]string, colstore.MaxDict+1)
	for i := range dict {
		dict[i] = fmt.Sprintf("s%d", i)
	}
	d := &colstore.Data{
		N:        1,
		Cols:     []colstore.Column{{Enc: colstore.EncDict, Codes16: []uint16{0}, Dict: dict, NaNFree: true}},
		MetaEnds: []int32{1}, Rates: []float64{1}, Freqs: []int64{1},
	}
	tbl := storage.NewTable("forged", types.NewSchema(types.Column{Name: "s", Kind: types.KindString}))
	tbl.AddBlock(&storage.Block{Chunk: d, N: 1, Zones: []storage.Zone{{Min: types.Str("s0"), Max: types.Str("s0"), Valid: true}}})
	seg, err := Open(writeFixture(t, tbl))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if _, err := seg.Table(0); err == nil || !strings.Contains(err.Error(), "more than 16-bit codes reach") {
		t.Fatalf("a %d-entry dictionary loaded: err %v", len(dict), err)
	}
}

// TestRetiredFormatVersionRejected loads the segments earlier commits
// wrote, CRCs intact: testdata/row_layout_v1.seg (6 rows in two blocks of
// the row layout), testdata/columnar_blocks_v1.seg (6 rows in two blocks,
// each its own column set — the format before blocks became windows on
// chunks), testdata/chunked_v2.seg (6 rows, one chunk cut into two
// blocks, with a dictionary column of 32-bit codes — the format before
// codes became 16-bit), testdata/chunked_v3.seg (buildFixture's 40 rows,
// whose int column spans 0..117 stored as int64s — the format before such
// a column became its minimum plus 16-bit offsets) and
// testdata/chunked_v4.seg (buildFixture's 40 rows, whose 23-string
// dictionary column stores 2-byte codes — the format before such a column
// took 1-byte ones). Both load paths must refuse them with a clean
// version error — no panic, no half-loaded table — so the engine above
// falls back to a cold rebuild.
func TestRetiredFormatVersionRejected(t *testing.T) {
	for file, version := range retiredSegments {
		for name, open := range map[string]func(string) (*Segment, error){"mmap": Open, "readfile": openReadFile} {
			seg, err := open(filepath.Join("testdata", file))
			if err == nil {
				seg.Close()
				t.Fatalf("%s %s: a format-%d segment loaded", file, name, version)
			}
			if want := fmt.Sprintf("unsupported format version %d", version); !strings.Contains(err.Error(), want) {
				t.Errorf("%s %s: error %q does not name the retired version %d", file, name, err, version)
			}
		}
	}
}

// retiredSegments maps each checked-in segment of a retired format to
// its format version.
var retiredSegments = map[string]int{
	"row_layout_v1.seg":      1,
	"columnar_blocks_v1.seg": 1,
	"chunked_v2.seg":         2,
	"chunked_v3.seg":         3,
	"chunked_v4.seg":         4,
}

// TestEncodingCoverage asserts the fixture actually exercises every
// encoding, so the round-trip test can't silently lose coverage.
func TestEncodingCoverage(t *testing.T) {
	tbl := buildFixture(t, 500)
	seen := map[colstore.Encoding]bool{}
	withNulls := false
	for _, d := range tbl.Chunks() {
		for c := range d.Cols {
			seen[d.Cols[c].Enc] = true
			if d.Cols[c].Nulls != nil {
				withNulls = true
			}
		}
	}
	for _, enc := range []colstore.Encoding{
		colstore.EncFloat, colstore.EncInt, colstore.EncBool,
		colstore.EncDict, colstore.EncValue, colstore.EncRLE,
	} {
		if !seen[enc] {
			t.Errorf("fixture never produced encoding %v", enc)
		}
	}
	if !withNulls {
		t.Error("fixture never produced a null bitmap")
	}
}

// TestMultiTableSegment checks several tables share one segment (the
// sample-family layout: one table per delta).
func TestMultiTableSegment(t *testing.T) {
	t1 := buildFixture(t, 130)
	t2 := buildFixture(t, 67)
	t2.Name = "fixture2"
	path := filepath.Join(t.TempDir(), "multi.seg")
	err := WriteSegment(path, func(w *Writer) error {
		if err := w.AddTable(t1); err != nil {
			return err
		}
		return w.AddTable(t2)
	})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.NumTables() != 2 {
		t.Fatalf("want 2 tables, got %d", seg.NumTables())
	}
	g1, err := seg.Table(0)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := seg.Table(1)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, t1, g1)
	assertTablesEqual(t, t2, g2)
}

// TestCorruption: every corrupted variant of a valid segment must fail
// with an error — wrong magic, wrong version, truncations at every
// prefix step, and a flipped byte at every stride-13 offset (section
// CRCs catch payload flips; footer/tail checks catch structural ones).
// None may panic and none may silently load wrong data.
func TestCorruption(t *testing.T) {
	want := buildFixture(t, 200)
	path := writeFixture(t, want)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, wantMeta := scanAll(want)

	// tryLoad loads a mutated file; a nil error means full materialized
	// content must still equal the original (flips in padding bytes are
	// legitimately undetectable and harmless).
	tryLoad := func(t *testing.T, mutated []byte) error {
		t.Helper()
		p := filepath.Join(t.TempDir(), "corrupt.seg")
		if err := os.WriteFile(p, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		seg, err := Open(p)
		if err != nil {
			return err
		}
		defer seg.Close()
		for i := 0; i < seg.NumTables(); i++ {
			tbl, err := seg.Table(i)
			if err != nil {
				return err
			}
			gotRows, gotMeta := scanAll(tbl)
			if !rowsEq(gotRows, wantRows) || !reflect.DeepEqual(gotMeta, wantMeta) {
				t.Fatal("corrupted segment loaded without error AND changed data")
			}
		}
		return nil
	}

	t.Run("wrong-magic", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[0] ^= 0xff
		if err := tryLoad(t, bad); err == nil {
			t.Fatal("wrong magic loaded")
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[4] = 0xee
		if err := tryLoad(t, bad); err == nil {
			t.Fatal("wrong version loaded")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for n := 0; n < len(valid); n += 997 {
			if err := tryLoad(t, valid[:n]); err == nil {
				t.Fatalf("truncation to %d bytes loaded", n)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		detected := 0
		for off := 0; off < len(valid); off += 13 {
			bad := append([]byte(nil), valid...)
			bad[off] ^= 0x40
			if err := tryLoad(t, bad); err != nil {
				detected++
			}
		}
		if detected == 0 {
			t.Fatal("no bit flip was ever detected")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if err := tryLoad(t, nil); err == nil {
			t.Fatal("empty file loaded")
		}
	})
}

// TestViewAllocsIndependentOfRows pins the zero-per-value-decode
// contract: materializing a table whose columns are int/float (plus
// their null bitmaps and rate/freq arrays) allocates a constant number
// of objects regardless of row count, because payloads are slice views
// over the mapping.
func TestViewAllocsIndependentOfRows(t *testing.T) {
	build := func(rows int) string {
		schema := types.NewSchema(
			types.Column{Name: "f", Kind: types.KindFloat},
			types.Column{Name: "i", Kind: types.KindInt},
		)
		tbl := storage.NewTable("nums", schema)
		bld := storage.NewBuilder(tbl, rows, 1, storage.InMemory)
		for r := 0; r < rows; r++ {
			bld.Append(types.Row{types.Float(float64(r)), types.Int(int64(r))},
				storage.RowMeta{Rate: 1 / (1 + float64(r%3)), StratumFreq: int64(r % 7)})
		}
		out := bld.Finish()
		path := filepath.Join(t.TempDir(), fmt.Sprintf("nums%d.seg", rows))
		if err := WriteSegment(path, func(w *Writer) error { return w.AddTable(out) }); err != nil {
			t.Fatal(err)
		}
		return path
	}
	allocs := func(path string) float64 {
		seg, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		return testing.AllocsPerRun(20, func() {
			if _, err := seg.Table(0); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(build(1_000))
	large := allocs(build(64_000))
	if small != large {
		t.Fatalf("per-value decode detected: %v allocs at 1k rows vs %v at 64k", small, large)
	}
}
