package sample

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"blinkdb/internal/colstore"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// buildByRowKey is the reference Build is held to: one RowKey string per
// base row grouping row locators in a string-keyed map, strata visited in
// sorted key order, each sampled row materialised fresh.
func buildByRowKey(base *storage.Table, phi types.ColumnSet, caps []int64, cfg BuildConfig) *Family {
	cfg = cfg.normalize()
	var idx []int
	for _, col := range phi.Columns() {
		idx = append(idx, base.Schema.Index(col))
	}
	type loc struct{ block, row int32 }
	strata := make(map[string][]loc)
	var keys []string
	for bi, b := range base.Blocks {
		for ri, n := 0, b.NumRows(); ri < n; ri++ {
			var key string
			if len(idx) > 0 {
				key = types.RowKey(b.RowAt(ri), idx)
			}
			if _, seen := strata[key]; !seen {
				keys = append(keys, key)
			}
			strata[key] = append(strata[key], loc{int32(bi), int32(ri)})
		}
	}
	sort.Strings(keys)

	rng := rand.New(rand.NewSource(cfg.Seed))
	fam := &Family{
		Phi:       phi,
		Caps:      append([]int64{}, caps...),
		schema:    base.Schema,
		baseRows:  base.NumRows(),
		numStrata: int64(len(keys)),
	}
	k1 := caps[len(caps)-1]
	builders := make([]*storage.Builder, len(caps))
	for i := range caps {
		t := storage.NewTable(fmt.Sprintf("%s@K%d", phi.Key(), caps[i]), base.Schema)
		builders[i] = storage.NewBuilder(t, cfg.RowsPerBlock, cfg.Nodes, cfg.Place)
		builders[i].HintSortedColumns(idx...)
		fam.Deltas = append(fam.Deltas, t)
	}
	for _, key := range keys {
		locs := strata[key]
		f := int64(len(locs))
		if f < k1 {
			fam.tailCount++
		}
		rng.Shuffle(len(locs), func(i, j int) { locs[i], locs[j] = locs[j], locs[i] })
		prev := int64(0)
		for li, cap := range caps {
			take := min(f, cap)
			for _, l := range locs[prev:take] {
				r := base.Blocks[l.block].RowAt(int(l.row))
				builders[li].Append(r, storage.RowMeta{Rate: 1, StratumFreq: f})
			}
			prev = take
		}
	}
	for i := range builders {
		builders[i].Finish()
	}
	fam.index()
	return fam
}

// bitsDiff names the first field on which got and want differ, "" when
// they are equal: every field, exported or not, is walked, floats compared
// by their bits (a NaN's payload and −0 count) and pointers by what they
// point at. A kind it does not walk is reported, not passed. A field's path
// is spelled out only once it differs.
func bitsDiff(path string, got, want reflect.Value) string {
	if got.Kind() != want.Kind() {
		return path + ": kinds differ"
	}
	switch got.Kind() {
	case reflect.Pointer:
		if got.IsNil() || want.IsNil() {
			if got.IsNil() != want.IsNil() {
				return path + ": nil on one side"
			}
			return ""
		}
		if got.Pointer() == want.Pointer() {
			return ""
		}
		return bitsDiff(path, got.Elem(), want.Elem())
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			if d := bitsDiff("", got.Field(i), want.Field(i)); d != "" {
				return path + "." + got.Type().Field(i).Name + d
			}
		}
	case reflect.Slice, reflect.Array:
		if got.Len() != want.Len() || got.Kind() == reflect.Slice && got.IsNil() != want.IsNil() {
			return fmt.Sprintf("%s: length %d, want %d", path, got.Len(), want.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if d := bitsDiff("", got.Index(i), want.Index(i)); d != "" {
				return fmt.Sprintf("%s[%d]%s", path, i, d)
			}
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
			return fmt.Sprintf("%s: %v, want %v", path, got.Float(), want.Float())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if got.Int() != want.Int() {
			return fmt.Sprintf("%s: %d, want %d", path, got.Int(), want.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if got.Uint() != want.Uint() {
			return fmt.Sprintf("%s: %d, want %d", path, got.Uint(), want.Uint())
		}
	case reflect.Bool:
		if got.Bool() != want.Bool() {
			return fmt.Sprintf("%s: %v, want %v", path, got.Bool(), want.Bool())
		}
	case reflect.String:
		if got.String() != want.String() {
			return fmt.Sprintf("%s: %q, want %q", path, got.String(), want.String())
		}
	default:
		return path + ": unhandled kind " + got.Kind().String()
	}
	return ""
}

// refTable builds a base table of several chunks, each from its own
// builder and so with its own dictionaries: a shifted string vocabulary
// with NULLs, a column mixing ints, bools, floats (two NaN payloads, ±0),
// strings and NULLs, a float column with NaN and ±0, Int(1) beside
// Bool(true), an int column in runs (RLE), and a float measure. So that a
// gather meets every form a chunk column takes, four more: strings with
// more than 256 distinct values in chunk 1 (2-byte codes) and a few in the
// others (1-byte codes), narrow ints with NULLs, a float column all NULL
// in chunk 0, and ints in runs (RLE) in even chunks and scattered (typed)
// in odd ones. checkRefShapes says they are there.
func refTable(chunks, rowsPerChunk int) *storage.Table {
	schema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "mix", Kind: types.KindInt},
		types.Column{Name: "f", Kind: types.KindFloat},
		types.Column{Name: "b", Kind: types.KindBool},
		types.Column{Name: "run", Kind: types.KindInt},
		types.Column{Name: "x", Kind: types.KindFloat},
		types.Column{Name: "tag", Kind: types.KindString},
		types.Column{Name: "n", Kind: types.KindInt},
		types.Column{Name: "late", Kind: types.KindFloat},
		types.Column{Name: "rt", Kind: types.KindInt},
	)
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(5))
	rng2 := rand.New(rand.NewSource(6)) // the last four columns'
	tab := storage.NewTable("base", schema)
	for k := 0; k < chunks; k++ {
		part := storage.NewBuilder(storage.NewTable("part", schema), 50, 3, storage.OnDisk)
		for i := 0; i < rowsPerChunk; i++ {
			city := types.Str(fmt.Sprintf("c%02d", 3*k+rng.Intn(9)))
			if rng.Intn(7) == 0 {
				city = types.Null()
			}
			var mix types.Value
			switch rng.Intn(6) {
			case 0:
				mix = types.Bool(rng.Intn(2) == 0)
			case 1:
				mix = types.Float([]float64{math.NaN(), nan2, 0, negZero, 1}[rng.Intn(5)])
			case 2:
				mix = types.Str("s")
			case 3:
				mix = types.Null()
			default:
				mix = types.Int(int64(rng.Intn(3)))
			}
			f := types.Float([]float64{math.NaN(), nan2, 0, negZero, 0.5}[rng.Intn(5)])
			if rng.Intn(9) == 0 {
				f = types.Null()
			}
			b := []types.Value{types.Int(0), types.Int(1), types.Bool(true), types.Bool(false)}[rng.Intn(4)]
			tags := 12
			if k == 1 {
				tags = 300
			}
			tag := types.Str(fmt.Sprintf("t%03d", rng2.Intn(tags)))
			n := types.Int(int64(1000 + rng2.Intn(50)))
			if rng2.Intn(8) == 0 {
				n = types.Null()
			}
			late := types.Float(float64(rng2.Intn(4)))
			if k == 0 {
				late = types.Null()
			}
			rt := types.Int(int64(i / 50))
			if k%2 == 1 {
				rt = types.Int(int64(rng2.Intn(20)))
			}
			part.AppendRow(types.Row{city, mix, f, b, types.Int(int64(i / 40 % 3)), types.Float(rng.NormFloat64()), tag, n, late, rt})
		}
		for _, blk := range part.Finish().Blocks {
			tab.AddBlock(blk)
		}
	}
	return tab
}

// checkRefShapes fails unless refTable's base holds every chunk column
// form it is meant to: 1- and 2-byte codes in one column, narrow ints with
// NULLs, a column all NULL in one chunk and typed in another, and one RLE
// in one chunk and typed in another.
func checkRefShapes(t *testing.T, tab *storage.Table) {
	t.Helper()
	col := func(name string) int { return tab.Schema.Index(name) }
	has := func(name string, form func(c *colstore.Column, n int) bool) bool {
		for _, d := range tab.Chunks() {
			if form(&d.Cols[col(name)], d.N) {
				return true
			}
		}
		return false
	}
	allNull := func(c *colstore.Column, n int) bool {
		for i := 0; i < n; i++ {
			if !c.IsNull(i) {
				return false
			}
		}
		return true
	}
	typed := func(c *colstore.Column, n int) bool { return c.Enc < colstore.EncValue && !allNull(c, n) }
	for _, shape := range []struct {
		name string
		ok   bool
	}{
		{"tag with 1-byte codes", has("tag", func(c *colstore.Column, _ int) bool { return c.Enc == colstore.EncDict && c.Codes8 != nil })},
		{"tag with 2-byte codes", has("tag", func(c *colstore.Column, _ int) bool { return c.Enc == colstore.EncDict && c.Codes16 != nil })},
		{"n narrow with NULLs", has("n", func(c *colstore.Column, _ int) bool { return c.Enc == colstore.EncInt && c.Narrow() && c.Nulls != nil })},
		{"late all NULL", has("late", allNull)},
		{"late typed", has("late", typed)},
		{"rt RLE", has("rt", func(c *colstore.Column, _ int) bool { return c.Enc == colstore.EncRLE })},
		{"rt typed", has("rt", typed)},
	} {
		if !shape.ok {
			t.Fatalf("the base has no chunk column of the shape %q", shape.name)
		}
	}
}

// TestBuildMatchesRowKeyBuild holds Build to buildByRowKey field for field
// — every delta's tables, blocks, zones and chunks, the caps, the stratum
// and tail counts — over φ of zero to three columns on a base of several
// chunks whose dictionaries differ, and over an empty base.
func TestBuildMatchesRowKeyBuild(t *testing.T) {
	tab := refTable(4, 700)
	if len(tab.Chunks()) != 4 {
		t.Fatalf("the base is meant to be 4 chunks, has %d", len(tab.Chunks()))
	}
	checkRefShapes(t, tab)
	empty := storage.NewTable("empty", tab.Schema)
	cfg := BuildConfig{RowsPerBlock: 64, Nodes: 3, Place: storage.InMemory, Seed: 11}
	for _, tc := range []struct {
		cols []string
		caps []int64
	}{
		{nil, []int64{50, 400, 2800}},
		{[]string{"city"}, []int64{3, 30, 300}},
		{[]string{"mix"}, []int64{5, 80}},
		{[]string{"f"}, []int64{1, 10, 100, 1000}},
		{[]string{"b"}, []int64{20, 200}},
		{[]string{"run"}, []int64{7, 70}},
		{[]string{"city", "b"}, []int64{2, 8, 32}},
		{[]string{"mix", "f"}, []int64{4, 16}},
		{[]string{"city", "run", "f"}, []int64{1, 3, 9}},
		{[]string{"b", "mix", "city"}, []int64{2, 6}},
		{[]string{"tag"}, []int64{1, 4, 16}},
		{[]string{"late", "n"}, []int64{2, 20}},
		{[]string{"rt"}, []int64{5, 25}},
	} {
		phi := types.NewColumnSet(tc.cols...)
		for _, base := range []*storage.Table{tab, empty} {
			got, err := Build(base, phi, tc.caps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("φ %v over %s: %v", tc.cols, base.Name, err)
			}
			want := buildByRowKey(base, phi, tc.caps, cfg)
			if base == tab && want.numStrata < 2 && len(tc.cols) > 0 {
				t.Fatalf("φ %v: %d strata, the case is meant to have several", tc.cols, want.numStrata)
			}
			if d := bitsDiff("Family", reflect.ValueOf(got), reflect.ValueOf(want)); d != "" {
				t.Fatalf("φ %v over %s: %s", tc.cols, base.Name, d)
			}
		}
	}
}

// TestValidateRejectsLostRows drops rows of one stratum from a delta —
// the family then under-represents it and its StratumFreq weights lie —
// and requires Validate to refuse it, as it refuses a stratum that gained
// rows.
func TestValidateRejectsLostRows(t *testing.T) {
	tab := skewedTable(t, []int{300, 120, 40, 5})
	phi := types.NewColumnSet("city")
	caps := []int64{10, 50, 200}
	fam, err := Build(tab, phi, caps, BuildConfig{RowsPerBlock: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := fam.Validate(); err != nil {
		t.Fatal(err)
	}
	// rebuild copies fam with each row r of delta li written copies(r)
	// times.
	rebuild := func(li int, copies func(r types.Row) int) *Family {
		out := &Family{Phi: fam.Phi, Caps: fam.Caps, schema: fam.schema, baseRows: fam.baseRows,
			numStrata: fam.numStrata, tailCount: fam.tailCount}
		out.Deltas = append(out.Deltas, fam.Deltas...)
		b := storage.NewBuilder(storage.NewTable("edited", tab.Schema), 16, 1, storage.OnDisk)
		for _, blk := range fam.Deltas[li].Blocks {
			for j := 0; j < blk.N; j++ {
				r := blk.RowAt(j)
				for range copies(r) {
					b.Append(r, blk.MetaAt(j))
				}
			}
		}
		out.Deltas[li] = b.Finish()
		out.index()
		return out
	}
	for li := range fam.Deltas {
		dropped := 0
		lost := rebuild(li, func(r types.Row) int {
			if r[0].S == cityName(1) && dropped < 3 {
				dropped++
				return 0
			}
			return 1
		})
		if dropped != 3 {
			t.Fatalf("delta %d: dropped %d rows of %s", li, dropped, cityName(1))
		}
		if err := lost.Validate(); err == nil {
			t.Errorf("delta %d lost 3 rows of %s and still validates", li, cityName(1))
		}
	}
	// The stratum of 5 rows sits whole in delta 0; written twice, one of
	// its rows makes 6.
	twice := false
	gained := rebuild(0, func(r types.Row) int {
		if r[0].S == cityName(3) && !twice {
			twice = true
			return 2
		}
		return 1
	})
	if err := gained.Validate(); !twice || err == nil {
		t.Errorf("a stratum of 5 rows holding 6 still validates (row written twice: %v)", twice)
	}
}
