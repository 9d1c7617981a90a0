package colstore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"blinkdb/internal/types"
)

// overflowRows returns n two-column rows: column 0 holds distinct strings
// (every 1000th row NULL, every 7th repeating an earlier string), column 1
// three strings in turn, so column 0 needs about n dictionary entries and
// column 1 three.
func overflowRows(n int, prefix string) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		id := types.Str(fmt.Sprintf("%s%06d", prefix, i))
		switch {
		case i%1000 == 999:
			id = types.Null()
		case i%7 == 6:
			id = types.Str(fmt.Sprintf("%s%06d", prefix, i/2))
		}
		rows[i] = types.Row{id, types.Str([]string{"a", "b", "c"}[i%3])}
	}
	return rows
}

func distinctStrings(rows []types.Row, c int) int {
	seen := map[string]bool{}
	for _, r := range rows {
		if r[c].Kind == types.KindString {
			seen[r[c].S] = true
		}
	}
	return len(seen)
}

// checkRows holds d to rows: Value and RowKey give every appended value
// back, and Strata numbers exactly the RowKey-equal projections.
func checkRows(t *testing.T, label string, d *Data, rows []types.Row) {
	t.Helper()
	if d.N != len(rows) {
		t.Fatalf("%s: %d rows, want %d", label, d.N, len(rows))
	}
	for i, r := range rows {
		for c := range r {
			if got := d.Cols[c].Value(i); !sameBits(got, r[c]) {
				t.Fatalf("%s: row %d column %d = %#v, want %#v", label, i, c, got, r[c])
			}
		}
	}
	idxs := [][]int{{0}}
	if len(d.Cols) > 1 {
		idxs = append(idxs, []int{1, 0})
	}
	for _, idx := range idxs {
		s := NewStrata(idx)
		ids := s.IDs(d, 0, d.N, nil)
		byKey := map[string]uint32{}
		for i, id := range ids {
			key := types.RowKey(rows[i], idx)
			if got := types.RowKey(d.Row(i), idx); got != key {
				t.Fatalf("%s: RowKey(%d, %v) = %q, want %q", label, i, idx, got, key)
			}
			if prev, ok := byKey[key]; ok && prev != id || !ok && int(id) != len(byKey) {
				t.Fatalf("%s: row %d (%q) has stratum %d over %v, numbered %v", label, i, key, id, idx, byKey)
			}
			byKey[key] = id
			if s.Key(id) != key {
				t.Fatalf("%s: Key(%d) = %q, want %q", label, id, s.Key(id), key)
			}
		}
		if s.Len() != len(byKey) {
			t.Fatalf("%s: %d strata over %v, want %d", label, s.Len(), idx, len(byKey))
		}
	}
}

// TestDictionaryOverflowFallsBackToValues: a chunk whose string column
// would need a dictionary entry past MaxDict stores it verbatim
// (EncValue), and the chunk still gives back every appended value, its
// RowKeys and strata, built from rows or gathered from encoded chunks in
// windows. The gather leaves every accumulator as appending the rows one
// by one does, also when the dictionary fills inside a window.
func TestDictionaryOverflowFallsBackToValues(t *testing.T) {
	rows := overflowRows(80000, "k")
	if n := distinctStrings(rows, 0); n <= MaxDict {
		t.Fatalf("fixture has %d distinct strings, not more than %d", n, MaxDict)
	}
	rates, freqs := make([]float64, len(rows)), make([]int64, len(rows))
	for i := range rates {
		rates[i], freqs[i] = 1, int64(len(rows))
	}
	d := FromRows(2, rows, rates, freqs)
	if d.Cols[0].Enc != EncValue || d.Cols[1].Enc != EncDict {
		t.Fatalf("encodings %v %v, want value and dict", d.Cols[0].Enc, d.Cols[1].Enc)
	}
	checkRows(t, "FromRows", d, rows)

	// Gathers: from the overflowed chunk itself, and from two dictionary
	// chunks whose strings only overflow together, in windows.
	a, b := overflowRows(40000, "p"), overflowRows(40000, "q")
	da, db := FromRows(2, a, rates[:len(a)], freqs[:len(a)]), FromRows(2, b, rates[:len(b)], freqs[:len(b)])
	if da.Cols[0].Enc != EncDict || db.Cols[0].Enc != EncDict {
		t.Fatalf("source encodings %v %v, want dict", da.Cols[0].Enc, db.Cols[0].Enc)
	}
	// After a and b[:full] the dictionary is full.
	seen := map[types.Value]bool{}
	for _, r := range a {
		seen[r[0]] = true
	}
	full := 0
	for ; len(seen) < MaxDict+1; full++ { // +1: NULL, which takes no entry
		seen[b[full][0]] = true
	}
	type window struct {
		src    *Data
		rows   []types.Row
		lo, hi int
	}
	for name, windows := range map[string][]window{
		"overflowed chunk": {{d, rows, 0, 30000}, {d, rows, 30000, len(rows)}},
		"two dictionaries": {{da, a, 0, 40000}, {db, b, 0, 12000}, {db, b, 12000, 40000}},
		"full at a window": {{da, a, 0, 40000}, {db, b, 0, full}, {db, b, full, full + 1}, {db, b, full + 1, 40000}},
	} {
		got, want := NewBuilder(2), NewBuilder(2)
		var all []types.Row
		for _, w := range windows {
			got.AppendGather([]*Data{w.src}, rowsOf(0, w.lo, w.hi), 1, int64(len(rows)))
			for _, r := range w.rows[w.lo:w.hi] {
				want.Append(r, 1, int64(len(rows)))
			}
			all = append(all, w.rows[w.lo:w.hi]...)
			for c := range got.cols {
				if diff := accDiff(&got.cols[c], &want.cols[c]); diff != "" {
					t.Fatalf("%s: rows [%d,%d), column %d: %s", name, w.lo, w.hi, c, diff)
				}
			}
		}
		out := got.Finish()
		if n := distinctStrings(all, 0); n > MaxDict && out.Cols[0].Enc != EncValue {
			t.Fatalf("%s: %d distinct strings encoded %v", name, n, out.Cols[0].Enc)
		}
		checkRows(t, name, out, all)
	}
}

// TestDictionaryOfMaxDictStaysDict: a chunk with exactly MaxDict distinct
// strings keeps its dictionary, with the top code 65535 in use, built from
// rows or gathered from two chunks.
func TestDictionaryOfMaxDictStaysDict(t *testing.T) {
	var rows []types.Row
	for i := 0; i < MaxDict; i++ {
		rows = append(rows, types.Row{types.Str(fmt.Sprintf("k%06d", i))})
		if i%5000 == 0 { // repeats and NULLs that add no entry
			rows = append(rows, types.Row{types.Str("k000000")}, types.Row{types.Null()})
		}
	}
	rates, freqs := make([]float64, len(rows)), make([]int64, len(rows))
	for i := range rates {
		rates[i], freqs[i] = 1, 1
	}
	d := FromRows(1, rows, rates, freqs)
	gather := NewBuilder(1)
	halves := []*Data{FromRows(1, rows[:30000], rates, freqs), FromRows(1, rows[30000:], rates, freqs)}
	gather.AppendGather(halves, append(rowsOf(0, 0, 30000), rowsOf(1, 0, len(rows)-30000)...), 1, 1)
	for name, d := range map[string]*Data{"FromRows": d, "AppendGather": gather.Finish()} {
		col := &d.Cols[0]
		if col.Enc != EncDict || len(col.Dict) != MaxDict {
			t.Fatalf("%s: encoding %v with %d entries, want dict with %d", name, col.Enc, len(col.Dict), MaxDict)
		}
		if col.Codes8 != nil || slices.Max(col.Codes16) != MaxDict-1 || col.Dict[MaxDict-1] != fmt.Sprintf("k%06d", MaxDict-1) {
			t.Fatalf("%s: top code %d holds %q", name, slices.Max(col.Codes16), col.Dict[slices.Max(col.Codes16)])
		}
		checkRows(t, name, d, rows)
	}
}

// TestDictionaryOverflowGather: a gather whose strings pass MaxDict partway
// through one call mixes the column exactly where appending the rows one by
// one does — every accumulator the same after each call — and the chunk
// gives back every row, its RowKeys and strata.
func TestDictionaryOverflowGather(t *testing.T) {
	a, b := overflowRows(40000, "p"), overflowRows(40000, "q")
	rates, freqs := make([]float64, len(a)), make([]int64, len(a))
	for i := range rates {
		rates[i] = 1
	}
	srcs := []*Data{FromRows(2, a, rates, freqs), FromRows(2, b, rates, freqs)}
	rows := [][]types.Row{a, b}
	var locs []Loc
	for s, rs := range rows {
		for i := range rs {
			locs = append(locs, Loc{int32(s), int32(i)})
		}
	}
	// The first call takes half of a; the second the rest of a and all of
	// b, shuffled, so the dictionary fills in its middle.
	tail := locs[20000:]
	rand.New(rand.NewSource(3)).Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	got, want := NewBuilder(2), NewBuilder(2)
	var all []types.Row
	for call, part := range [][]Loc{locs[:20000], tail} {
		if got.cols[0].mixed {
			t.Fatalf("call %d: column 0 mixed before the call", call)
		}
		got.AppendGather(srcs, part, 1, 5)
		for _, l := range part {
			want.Append(rows[l.Chunk][l.Row], 1, 5)
			all = append(all, rows[l.Chunk][l.Row])
		}
		for c := range got.cols {
			if diff := accDiff(&got.cols[c], &want.cols[c]); diff != "" {
				t.Fatalf("call %d, column %d: %s", call, c, diff)
			}
		}
	}
	out := got.Finish()
	if out.Cols[0].Enc != EncValue || out.Cols[1].Enc != EncDict {
		t.Fatalf("encodings %v %v, want value and dict", out.Cols[0].Enc, out.Cols[1].Enc)
	}
	checkRows(t, "gather", out, all)
}
