// Package blockfile implements BlinkDB-Go's on-disk columnar segment
// format — the persistence layer under cross-restart warmup.
//
// A segment file holds one or more storage.Tables (typically the deltas
// of one stratified sample family) plus named metadata blobs, laid out
// for mmap loading:
//
//	header   16 B   magic "BKF1", format version, flags
//	sections ...    8-byte-aligned raw payloads (one per column payload,
//	                null bitmap, dictionary, rate/freq array, …)
//	footer   ...    index: section table (offset, length, CRC32C per
//	                section) + logical structure (tables → physical
//	                chunks → columns with their encodings and section
//	                refs — an int or bool column names its form: wide,
//	                an int64 section, or narrow, its Base and a uint16
//	                offset section; a dictionary column its code width,
//	                1 or 2 bytes — then the block table: placement and
//	                a (chunk, offset, rows) window per priced block)
//	tail     24 B   footer offset/length, footer CRC32C, magic
//
// All fixed-width fields are little-endian. Numeric column payloads
// (float64/int64 values, uint64 null-bitmap words, 1- or 2-byte
// dictionary codes, chosen per chunk, uint16 narrow int offsets, int32 run
// ends and metadata-run ends) are
// stored as raw machine-width arrays, so on a little-endian host a loaded
// column's slices are views over the mapping — zero per-value decode, zero
// per-value allocation. Strings (dictionaries of at most 65,536 entries,
// mixed-kind value streams) are length-prefixed and decoded on load.
//
// A block's zones and byte size are not stored: the loader derives them
// from its window's rows (storage.Cut), so they are what a build of the
// same rows computes and a file cannot carry a zone that excludes its own
// rows.
//
// Every section and the footer carry a CRC32C; loaders verify the CRC of
// each section they materialize, so a flipped byte surfaces as an error
// (never a wrong answer, never a panic). Readers treat every count and
// offset as untrusted: a truncated or forged file fails with
// errTruncated-wrapped errors.
package blockfile

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"unsafe"

	"blinkdb/internal/colstore"
	"blinkdb/internal/storage"
)

const (
	// magicV1 spells "BKF1" when the u32 is laid out little-endian.
	magicV1 = uint32('B') | uint32('K')<<8 | uint32('F')<<16 | uint32('1')<<24
	// FormatVersion is the current segment format version. Readers
	// reject any other version: the contract is exact-match, and a segment
	// is a cache — the engine rebuilds over one it cannot read. Version 1
	// stored every priced block as its own column set; version 2 stored
	// chunks as version 3 does, but with 32-bit dictionary codes; version
	// 3 stored every int and bool column as int64s, where version 4 stores
	// one whose values fit a 16-bit window as its minimum plus uint16
	// offsets; version 4 stored every dictionary column's codes as
	// uint16s, where version 5 stores 1- or 2-byte codes, chosen per
	// chunk: one byte a row when the dictionary has at most 256 entries;
	// version 5 stored each block's byte size and zones, which version 6
	// derives on load.
	FormatVersion = 6

	headerSize = 16
	tailSize   = 24
)

// noSection marks an absent optional section reference (e.g. a column
// with no null bitmap).
const noSection = ^uint32(0)

// crcTable is CRC32-Castagnoli, hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

type sectionInfo struct {
	off uint64
	len uint64
	crc uint32
}

// Writer serializes tables and metadata blobs into the segment format.
// Sections stream to the underlying writer as tables are added; Finish
// writes the footer and tail. Errors are sticky: the first failure
// poisons the writer and Finish reports it.
type Writer struct {
	w        io.Writer
	off      uint64
	sections []sectionInfo
	metas    []byte // Enc-encoded (name, section) pairs
	nmetas   uint32
	tables   []byte // Enc-encoded table descriptors
	ntables  uint32
	err      error
	started  bool
	finished bool
}

// NewWriter starts a segment on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

func (w *Writer) writeAll(b []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.w.Write(b); err != nil {
		w.err = err
		return
	}
	w.off += uint64(len(b))
}

func (w *Writer) start() {
	if w.started || w.err != nil {
		return
	}
	w.started = true
	var e Enc
	e.U32(magicV1)
	e.U32(FormatVersion)
	e.U32(0) // flags
	e.U32(0) // reserved
	w.writeAll(e.buf)
}

var zeroPad [8]byte

// section writes one 8-aligned section and returns its index.
func (w *Writer) section(data []byte) uint32 {
	w.start()
	if pad := int(w.off % 8); pad != 0 {
		w.writeAll(zeroPad[:8-pad])
	}
	idx := uint32(len(w.sections))
	w.sections = append(w.sections, sectionInfo{
		off: w.off,
		len: uint64(len(data)),
		crc: crc32.Checksum(data, crcTable),
	})
	w.writeAll(data)
	return idx
}

// PutMeta stores a named metadata blob (retrievable via Segment.Meta).
func (w *Writer) PutMeta(name string, blob []byte) {
	sec := w.section(blob)
	var e Enc
	e.Str(name)
	e.U32(sec)
	w.metas = append(w.metas, e.buf...)
	w.nmetas++
}

// AddTable serializes t into the segment: its chunks once each, then the
// block table. Blocks are written in order, so IDs round-trip through
// Table.AddBlock on load.
func (w *Writer) AddTable(t *storage.Table) error {
	var e Enc
	e.Str(t.Name)
	e.U32(uint32(t.Schema.Len()))
	for _, c := range t.Schema.Columns {
		e.Str(c.Name)
		e.U8(uint8(c.Kind))
	}
	chunks := t.Chunks()
	e.U32(uint32(len(chunks)))
	for ci, d := range chunks {
		if len(d.Cols) != t.Schema.Len() {
			return w.fail(fmt.Errorf("blockfile: chunk %d of %q has %d columns, schema %d",
				ci, t.Name, len(d.Cols), t.Schema.Len()))
		}
		e.U32(uint32(d.N))
		e.U32(uint32(len(d.MetaEnds)))
		e.U32(w.section(i32Bytes(d.MetaEnds)))
		e.U32(w.section(f64Bytes(d.Rates)))
		e.U32(w.section(i64Bytes(d.Freqs)))
		for i := range d.Cols {
			w.addColumn(&e, &d.Cols[i])
		}
	}
	e.U32(uint32(len(t.Blocks)))
	chunk := -1
	for _, b := range t.Blocks {
		if b.Chunk == nil {
			return w.fail(fmt.Errorf("blockfile: block %d of %q has no rows behind it", b.ID, t.Name))
		}
		// Table.Chunks starts a chunk wherever the pointer changes.
		if chunk < 0 || chunks[chunk] != b.Chunk {
			chunk++
		}
		e.U32(uint32(b.Node))
		e.U8(uint8(b.Place))
		e.U32(uint32(chunk))
		e.U32(uint32(b.Off))
		e.U32(uint32(b.N))
	}
	w.tables = append(w.tables, e.buf...)
	w.ntables++
	return w.err
}

func (w *Writer) addColumn(e *Enc, c *colstore.Column) {
	e.U8(uint8(c.Enc))
	if c.NaNFree {
		e.U8(1)
	} else {
		e.U8(0)
	}
	switch c.Enc {
	case colstore.EncFloat:
		e.U32(w.section(f64Bytes(c.Floats)))
		e.U32(w.optSection(u64Bytes(c.Nulls), c.Nulls != nil))
	case colstore.EncInt, colstore.EncBool:
		if c.Narrow() {
			e.U8(1)
			e.I64(c.Base)
			e.U32(w.section(u16Bytes(c.Offs)))
		} else {
			e.U8(0)
			e.U32(w.section(i64Bytes(c.Ints)))
		}
		e.U32(w.optSection(u64Bytes(c.Nulls), c.Nulls != nil))
	case colstore.EncDict:
		if c.Codes8 != nil {
			e.U8(1)
			e.U32(w.section(c.Codes8))
		} else {
			e.U8(0)
			e.U32(w.section(u16Bytes(c.Codes16)))
		}
		e.U32(w.optSection(u64Bytes(c.Nulls), c.Nulls != nil))
		var dict Enc
		dict.U32(uint32(len(c.Dict)))
		for _, s := range c.Dict {
			dict.Str(s)
		}
		e.U32(w.section(dict.buf))
	case colstore.EncValue:
		var vals Enc
		vals.Vals(c.Values)
		e.U32(w.section(vals.buf))
	case colstore.EncRLE:
		var runs Enc
		runs.Vals(c.RunVals)
		e.U32(w.section(runs.buf))
		e.U32(w.section(i32Bytes(c.RunEnds)))
	default:
		if w.err == nil {
			w.err = fmt.Errorf("blockfile: unknown encoding %d", c.Enc)
		}
	}
}

// fail poisons the writer with err (the first failure sticks) and returns
// it.
func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return err
}

func (w *Writer) optSection(data []byte, present bool) uint32 {
	if !present {
		return noSection
	}
	return w.section(data)
}

// Finish writes the footer and tail. The writer is unusable afterwards.
func (w *Writer) Finish() error {
	if w.finished {
		return w.err
	}
	w.finished = true
	w.start()
	var f Enc
	f.U32(uint32(len(w.sections)))
	for _, s := range w.sections {
		f.U64(s.off)
		f.U64(s.len)
		f.U32(s.crc)
	}
	f.U32(w.nmetas)
	f.buf = append(f.buf, w.metas...)
	f.U32(w.ntables)
	f.buf = append(f.buf, w.tables...)

	footerOff := w.off
	w.writeAll(f.buf)
	var tail Enc
	tail.U64(footerOff)
	tail.U64(uint64(len(f.buf)))
	tail.U32(crc32.Checksum(f.buf, crcTable))
	tail.U32(magicV1)
	w.writeAll(tail.buf)
	return w.err
}

// WriteSegment builds a segment at path atomically: the build callback
// populates a Writer backed by a temp file in the same directory, which
// is fsynced and renamed over path only on success. A crashed or failed
// write can therefore never leave a half-written segment under the
// final name.
func WriteSegment(path string, build func(w *Writer) error) (err error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	w := NewWriter(tmp)
	if err = build(w); err != nil {
		return err
	}
	if err = w.Finish(); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Raw little-endian byte views of numeric slices. On a little-endian
// host these alias the slice memory (no copy); on big-endian they
// re-encode element-wise so files stay portable.

func f64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
	}
	var e Enc
	for _, x := range v {
		e.F64(x)
	}
	return e.buf
}

func i64Bytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
	}
	var e Enc
	for _, x := range v {
		e.I64(x)
	}
	return e.buf
}

func u64Bytes(v []uint64) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
	}
	var e Enc
	for _, x := range v {
		e.U64(x)
	}
	return e.buf
}

func u16Bytes(v []uint16) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*2)
	}
	var e Enc
	for _, x := range v {
		e.U16(x)
	}
	return e.buf
}

func i32Bytes(v []int32) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
	}
	var e Enc
	for _, x := range v {
		e.U32(uint32(x))
	}
	return e.buf
}
