package blockfile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"blinkdb/internal/colstore"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// FuzzSegmentLoad throws arbitrary bytes at the segment loader: parse,
// then materialize every table and meta blob of anything that parses.
// The contract under fuzzing is "error or correct, never panic" — every
// count, offset and section reference is attacker-controlled here.
// Seeds cover a valid single-table segment, a multi-table segment, the
// two retired format-1 segments and the retired format-2 to format-5
// ones, systematic mutations of the first, and a segment whose 1-byte
// dictionary code is past its dictionary. testdata/fuzz holds the
// checked-in corpus: a valid format-6 segment of buildFixture's 40 rows,
// its int column narrow and its dictionary column of 1-byte codes
// (seed-valid), it with a byte flipped a third of the way in
// (seed-bitflip), cut in half (seed-truncated) and with its last byte
// changed (seed-badtail), testdata/chunked_v2.seg (seed-retired-v2),
// testdata/chunked_v3.seg (seed-retired-v3), testdata/chunked_v4.seg
// (seed-retired-v4), testdata/chunked_v5.seg (seed-retired-v5), the
// two-row segment whose 1-byte code 2 indexes a two-entry dictionary
// (seed-badcode8) and the one whose 1-byte codes sit over a dictionary
// larger than they reach (seed-bigdict8).
func FuzzSegmentLoad(f *testing.F) {
	seed := func(rows int, extraTable bool) []byte {
		tbl := buildFixture(f, rows)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.PutMeta("m", []byte("blob"))
		if err := w.AddTable(tbl); err != nil {
			f.Fatal(err)
		}
		if extraTable {
			t2 := buildFixture(f, rows/2+1)
			t2.Name = "second"
			if err := w.AddTable(t2); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := seed(90, false)
	f.Add(valid)
	retired, err := os.ReadFile(filepath.Join("testdata", "row_layout_v1.seg"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(retired)
	f.Add(seed(70, true))
	for off := 0; off < len(valid); off += len(valid)/17 + 1 {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x81
		f.Add(mut)
		f.Add(valid[:off])
	}
	// After the rest, so the earlier seeds keep their numbers.
	for _, file := range []string{"columnar_blocks_v1.seg", "chunked_v2.seg", "chunked_v3.seg", "chunked_v4.seg", "chunked_v5.seg"} {
		retired, err = os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(retired)
	}
	f.Add(badCode8Segment(f))
	f.Add(dictSegment(f, bigDict8Column()))

	f.Fuzz(func(t *testing.T, data []byte) {
		seg := &Segment{data: alignedCopy(data)}
		if err := seg.parse(); err != nil {
			return
		}
		for _, name := range []string{"m", "missing"} {
			seg.Meta(name)
		}
		for i := 0; i < seg.NumTables(); i++ {
			tbl, err := seg.Table(i, 2)
			if err != nil {
				continue
			}
			// Drive the loaded table the way the executor would: full
			// scan with per-row metadata, exercising every decoded
			// column accessor (RLE run lookup, dict decode, bitmaps).
			tbl.Scan(func(_ types.Row, _ storage.RowMeta) bool { return true })
		}
	})
}

// badCode8Segment returns a segment of one two-row dictionary column whose
// 1-byte codes are 0 and 2, over a two-entry dictionary.
func badCode8Segment(f testing.TB) []byte {
	return dictSegment(f, colstore.Column{Enc: colstore.EncDict, Codes8: []uint8{0, 2}, Dict: []string{"a", "b"}, NaNFree: true})
}

// dictSegment returns a segment of one table whose one two-row column is
// col (badCodeTable).
func dictSegment(f testing.TB, col colstore.Column) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.AddTable(badCodeTable(col)); err != nil {
		f.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// alignedCopy mirrors readFileAligned for in-memory fuzz inputs.
func alignedCopy(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]uint64, (len(b)+7)/8)
	dst := unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), len(b))
	copy(dst, b)
	return dst
}
