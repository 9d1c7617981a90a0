package blinkdb

import (
	"testing"

	"blinkdb/internal/colstore"
	"blinkdb/internal/storage"
)

// payloadBytes sums, per encoding, the bytes the column payloads of
// tables' chunks hold — float64s, int64s, 16-bit int offsets, dictionary
// codes of either width, null bitmaps — and counts the rows of dictionary
// columns whose dictionary has at most colstore.MaxDict8 entries.
type payloadBytes struct {
	floats, ints, offs, codes, nulls int64
	smallDictRows                    int64
}

func (p *payloadBytes) add(t testing.TB, tables ...*storage.Table) {
	t.Helper()
	for _, tbl := range tables {
		for ci, d := range tbl.Chunks() {
			for c := range d.Cols {
				col := &d.Cols[c]
				p.floats += 8 * int64(len(col.Floats))
				p.ints += 8 * int64(len(col.Ints))
				p.offs += 2 * int64(len(col.Offs))
				p.codes += int64(len(col.Codes8)) + 2*int64(len(col.Codes16))
				p.nulls += 8 * int64(len(col.Nulls))
				if col.Enc != colstore.EncDict || len(col.Dict) > colstore.MaxDict8 {
					continue
				}
				p.smallDictRows += int64(d.N)
				if len(col.Codes8) != d.N || col.Codes16 != nil {
					t.Errorf("%s chunk %d column %d: %d-entry dictionary over %d rows stores %d 1-byte and %d 2-byte codes",
						tbl.Name, ci, c, len(col.Dict), d.N, len(col.Codes8), len(col.Codes16))
				}
			}
		}
	}
}

// TestExploreLayoutOneByteCodes pins the column layout of the explore
// shape at 250k rows — the repo benchmark's set-up — over the base table
// and every family delta: each dictionary column of at most 256 entries
// (all of them: the widest column, city, has 200 values) stores one byte a
// row, so its codes take as many bytes as the dictionary-coded rows. It
// logs the payload bytes per encoding, which mem_mb is made of.
func TestExploreLayoutOneByteCodes(t *testing.T) {
	eng := exploreEngine(t, 250000)
	ent, err := eng.cat.Lookup("sessions")
	if err != nil {
		t.Fatal(err)
	}
	var p payloadBytes
	p.add(t, ent.Table)
	for _, f := range ent.Families {
		p.add(t, f.Deltas...)
	}
	if p.smallDictRows == 0 || p.codes != p.smallDictRows {
		t.Errorf("dictionary codes take %d bytes over %d dictionary-coded rows, want one a row", p.codes, p.smallDictRows)
	}
	t.Logf("payload MB: floats %.2f, ints %.2f, int offsets %.2f, dictionary codes %.2f, null bitmaps %.2f",
		float64(p.floats)/1e6, float64(p.ints)/1e6, float64(p.offs)/1e6, float64(p.codes)/1e6, float64(p.nulls)/1e6)
}
