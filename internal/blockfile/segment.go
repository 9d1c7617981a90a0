package blockfile

import (
	"fmt"
	"hash/crc32"
	"os"
	"unsafe"

	"blinkdb/internal/colstore"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// Segment is a loaded segment file. The backing bytes are either an
// mmap'd read-only view of the file or an 8-aligned in-memory copy
// (the portable ReadFile fallback); Mapped reports which. Tables
// materialized from a mapped segment alias the mapping — they stay
// valid only until Close, and their payload slices must never be
// written to.
type Segment struct {
	data   []byte
	mapped bool
	unmap  func() error

	sections []sectionInfo
	metas    map[string][]byte
	tables   []tableDesc
}

type tableDesc struct {
	name   string
	schema *types.Schema
	chunks []chunkDesc
	blocks []blockDesc
}

type chunkDesc struct {
	nrows, nruns                    int
	metaEndsSec, ratesSec, freqsSec uint32
	cols                            []colDesc
}

type blockDesc struct {
	node   int
	place  storage.Placement
	chunk  int
	off, n int
}

type colDesc struct {
	enc     colstore.Encoding
	nanFree bool
	// narrow marks an int or bool column stored as base + uint16 offsets,
	// or a dictionary column of 1-byte codes.
	narrow bool
	base   int64
	// Section refs by role: payload, nulls, dict (meaning depends on enc).
	payload, nulls, dict uint32
}

// Open loads the segment at path, preferring mmap and falling back to an
// aligned in-memory read where mapping is unavailable. The footer CRC
// and structure are verified here; per-section CRCs are verified when a
// section is first materialized (Table, Meta).
func Open(path string) (*Segment, error) {
	return open(path, false)
}

func open(path string, forceRead bool) (*Segment, error) {
	s := &Segment{}
	if !forceRead {
		if data, unmap, err := mmapFile(path); err == nil {
			s.data, s.mapped, s.unmap = data, true, unmap
		}
	}
	if s.data == nil {
		data, err := readFileAligned(path)
		if err != nil {
			return nil, err
		}
		s.data = data
	}
	if err := s.parse(); err != nil {
		s.Close()
		return nil, fmt.Errorf("blockfile: %s: %w", path, err)
	}
	return s, nil
}

// Close releases the mapping. Tables materialized from a mapped segment
// must not be used afterwards.
func (s *Segment) Close() error {
	if s.unmap != nil {
		u := s.unmap
		s.unmap = nil
		s.data = nil
		return u()
	}
	s.data = nil
	return nil
}

// readFileAligned reads the whole file into a buffer whose base address
// is 8-aligned, so the same zero-copy slice views work on the fallback
// path as on the mmap path.
func readFileAligned(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, nil
	}
	words := make([]uint64, (len(raw)+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(raw))
	copy(buf, raw)
	return buf, nil
}

func (s *Segment) parse() error {
	data := s.data
	if len(data) < headerSize+tailSize {
		return fmt.Errorf("file too small (%d bytes): %w", len(data), errTruncated)
	}
	hd := Dec{b: data[:headerSize]}
	if m := hd.U32(); m != magicV1 {
		return fmt.Errorf("bad magic %#x", m)
	}
	if v := hd.U32(); v != FormatVersion {
		return fmt.Errorf("unsupported format version %d (want %d)", v, FormatVersion)
	}
	td := Dec{b: data[len(data)-tailSize:]}
	footOff := td.U64()
	footLen := td.U64()
	footCRC := td.U32()
	if m := td.U32(); m != magicV1 {
		return fmt.Errorf("bad tail magic %#x", m)
	}
	if footOff < headerSize || footOff+footLen < footOff ||
		footOff+footLen > uint64(len(data)-tailSize) {
		return fmt.Errorf("footer out of bounds: %w", errTruncated)
	}
	foot := data[footOff : footOff+footLen]
	if crc := crc32.Checksum(foot, crcTable); crc != footCRC {
		return fmt.Errorf("footer CRC mismatch (%#x != %#x)", crc, footCRC)
	}
	d := Dec{b: foot}
	nsec := d.Count(20)
	s.sections = make([]sectionInfo, nsec)
	for i := range s.sections {
		s.sections[i] = sectionInfo{off: d.U64(), len: d.U64(), crc: d.U32()}
		si := &s.sections[i]
		if si.off < headerSize || si.off+si.len < si.off || si.off+si.len > footOff {
			return fmt.Errorf("section %d out of bounds: %w", i, errTruncated)
		}
	}
	nmeta := d.Count(8)
	s.metas = make(map[string][]byte, nmeta)
	for i := 0; i < nmeta; i++ {
		name := d.Str()
		sec := d.U32()
		if d.err != nil {
			return d.err
		}
		blob, err := s.section(sec)
		if err != nil {
			return fmt.Errorf("meta %q: %w", name, err)
		}
		s.metas[name] = blob
	}
	ntab := d.Count(8)
	s.tables = make([]tableDesc, 0, ntab)
	for i := 0; i < ntab; i++ {
		t, err := s.parseTable(&d)
		if err != nil {
			return fmt.Errorf("table %d: %w", i, err)
		}
		s.tables = append(s.tables, t)
	}
	if d.err != nil {
		return d.err
	}
	return nil
}

func (s *Segment) parseTable(d *Dec) (tableDesc, error) {
	var t tableDesc
	t.name = d.Str()
	ncols := d.Count(5)
	cols := make([]types.Column, ncols)
	seen := make(map[string]bool, ncols)
	for i := range cols {
		cols[i].Name = d.Str()
		cols[i].Kind = types.Kind(d.U8())
		if d.err != nil {
			return t, d.err
		}
		if cols[i].Kind > types.KindBool {
			return t, fmt.Errorf("column %q: invalid kind %d", cols[i].Name, cols[i].Kind)
		}
		lower := lowerASCII(cols[i].Name)
		if seen[lower] {
			return t, fmt.Errorf("duplicate column %q", cols[i].Name)
		}
		seen[lower] = true
	}
	if d.err != nil {
		return t, d.err
	}
	t.schema = types.NewSchema(cols...)
	nchunks := d.Count(20)
	t.chunks = make([]chunkDesc, 0, nchunks)
	for i := 0; i < nchunks; i++ {
		c, err := s.parseChunk(d, ncols)
		if err != nil {
			return t, fmt.Errorf("chunk %d: %w", i, err)
		}
		t.chunks = append(t.chunks, c)
	}
	nblocks := d.Count(17)
	t.blocks = make([]blockDesc, nblocks)
	for i := range t.blocks {
		b := &t.blocks[i]
		b.node = int(d.U32())
		b.place = storage.Placement(d.U8())
		b.chunk = int(d.U32())
		b.off = int(d.U32())
		b.n = int(d.U32())
	}
	return t, d.err
}

func (s *Segment) parseChunk(d *Dec, ncols int) (chunkDesc, error) {
	var c chunkDesc
	c.nrows = int(d.U32())
	c.nruns = int(d.U32())
	c.metaEndsSec = d.U32()
	c.ratesSec = d.U32()
	c.freqsSec = d.U32()
	c.cols = make([]colDesc, ncols)
	for i := range c.cols {
		cd := &c.cols[i]
		cd.enc = colstore.Encoding(d.U8())
		cd.nanFree = d.U8() != 0
		cd.payload, cd.nulls, cd.dict = noSection, noSection, noSection
		switch cd.enc {
		case colstore.EncFloat:
			cd.payload = d.U32()
			cd.nulls = d.U32()
		case colstore.EncInt, colstore.EncBool:
			if cd.narrow = d.U8() != 0; cd.narrow {
				cd.base = d.I64()
			}
			cd.payload = d.U32()
			cd.nulls = d.U32()
		case colstore.EncDict:
			cd.narrow = d.U8() != 0
			cd.payload = d.U32()
			cd.nulls = d.U32()
			cd.dict = d.U32()
		case colstore.EncValue:
			cd.payload = d.U32()
		case colstore.EncRLE:
			cd.payload = d.U32() // run values
			cd.dict = d.U32()    // run ends
		default:
			if d.err != nil {
				return c, d.err
			}
			return c, fmt.Errorf("column %d: invalid encoding %d", i, cd.enc)
		}
	}
	return c, d.err
}

// section returns the verified bytes of section idx. The CRC is checked
// on every call — cheap relative to a load, and it keeps the contract
// simple: bytes handed out are always the bytes that were written.
func (s *Segment) section(idx uint32) ([]byte, error) {
	if int(idx) >= len(s.sections) {
		return nil, fmt.Errorf("section ref %d out of range (%d sections)", idx, len(s.sections))
	}
	si := s.sections[idx]
	data := s.data[si.off : si.off+si.len]
	if crc := crc32.Checksum(data, crcTable); crc != si.crc {
		return nil, fmt.Errorf("section %d CRC mismatch (%#x != %#x)", idx, crc, si.crc)
	}
	return data, nil
}

// Meta returns the named metadata blob.
func (s *Segment) Meta(name string) ([]byte, bool) {
	b, ok := s.metas[name]
	return b, ok
}

// NumTables returns how many tables the segment holds.
func (s *Segment) NumTables() int { return len(s.tables) }

// Table materializes table i. Columnar int/float payloads, null
// bitmaps, dictionary codes, run ends and the sampling-metadata runs are
// slice views over the segment's backing bytes (zero per-value decode);
// strings and mixed-kind value streams are decoded. Each referenced
// section's CRC is verified, and all structural invariants the executor
// relies on (payload lengths, run-end monotonicity, dictionary code
// bounds, every chunk tiled in order by its blocks' windows) are
// validated — a corrupt segment returns an error, never a broken table.
// The blocks' zones and byte sizes are derived from the rows, each
// chunk's columns on up to workers goroutines (storage.Cut).
func (s *Segment) Table(i, workers int) (*storage.Table, error) {
	if i < 0 || i >= len(s.tables) {
		return nil, fmt.Errorf("blockfile: table index %d out of range", i)
	}
	td := &s.tables[i]
	chunks := make([]*colstore.Data, len(td.chunks))
	for ci := range td.chunks {
		d, err := s.loadChunk(&td.chunks[ci], td.schema)
		if err != nil {
			return nil, fmt.Errorf("blockfile: table %q chunk %d: %w", td.name, ci, err)
		}
		chunks[ci] = d
	}
	ends := make([]int, len(td.blocks)) // each block's window end in its chunk
	chunk, end := 0, 0                  // the chunk being tiled and how far
	for bi := range td.blocks {
		bd := &td.blocks[bi]
		if chunk < len(chunks) && end == chunks[chunk].N && bd.chunk == chunk+1 {
			chunk, end = chunk+1, 0
		}
		if bd.chunk != chunk || chunk >= len(chunks) || bd.off != end || bd.n <= 0 || bd.n > chunks[chunk].N-end {
			return nil, fmt.Errorf("blockfile: table %q block %d: window [%d,+%d) of chunk %d does not continue the tiling",
				td.name, bi, bd.off, bd.n, bd.chunk)
		}
		end += bd.n
		ends[bi] = end
	}
	if len(chunks) > 0 && (chunk != len(chunks)-1 || end != chunks[chunk].N) {
		return nil, fmt.Errorf("blockfile: table %q: blocks cover chunk %d to row %d, the table has %d chunks",
			td.name, chunk, end, len(chunks))
	}
	t := storage.NewTable(td.name, td.schema)
	for lo, hi := 0, 0; lo < len(td.blocks); lo = hi {
		for hi = lo + 1; hi < len(td.blocks) && td.blocks[hi].chunk == td.blocks[lo].chunk; hi++ {
		}
		blocks := storage.Cut(chunks[td.blocks[lo].chunk], ends[lo:hi], workers)
		for i := range blocks {
			blocks[i].Node, blocks[i].Place = td.blocks[lo+i].node, td.blocks[lo+i].place
			t.AddBlock(&blocks[i])
		}
	}
	return t, nil
}

func (s *Segment) loadChunk(cd *chunkDesc, schema *types.Schema) (*colstore.Data, error) {
	d := &colstore.Data{N: cd.nrows}
	var err error
	if d.MetaEnds, err = s.i32View(cd.metaEndsSec, cd.nruns); err != nil {
		return nil, fmt.Errorf("metadata run ends: %w", err)
	}
	if err = checkRunEnds(d.MetaEnds, cd.nrows); err != nil {
		return nil, fmt.Errorf("metadata %w", err)
	}
	if d.Rates, err = s.f64View(cd.ratesSec, cd.nruns); err != nil {
		return nil, fmt.Errorf("rates: %w", err)
	}
	if d.Freqs, err = s.i64View(cd.freqsSec, cd.nruns); err != nil {
		return nil, fmt.Errorf("freqs: %w", err)
	}
	d.Cols = make([]colstore.Column, len(cd.cols))
	for ci := range cd.cols {
		if err := s.loadColumn(&d.Cols[ci], &cd.cols[ci], cd.nrows); err != nil {
			return nil, fmt.Errorf("column %q: %w", schema.Columns[ci].Name, err)
		}
	}
	return d, nil
}

// checkRunEnds validates a cumulative run-end list: strictly ascending
// and covering exactly nrows.
func checkRunEnds(ends []int32, nrows int) error {
	prev := int32(0)
	for _, end := range ends {
		if end <= prev {
			return fmt.Errorf("run ends not ascending (%d after %d)", end, prev)
		}
		prev = end
	}
	if int(prev) != nrows {
		return fmt.Errorf("runs cover %d rows, want %d", prev, nrows)
	}
	return nil
}

func (s *Segment) loadColumn(c *colstore.Column, cd *colDesc, nrows int) error {
	c.Enc = cd.enc
	c.NaNFree = cd.nanFree
	var err error
	switch cd.enc {
	case colstore.EncFloat:
		if c.Floats, err = s.f64View(cd.payload, nrows); err != nil {
			return err
		}
		return s.loadNulls(c, cd, nrows)
	case colstore.EncInt, colstore.EncBool:
		if cd.narrow {
			c.Base = cd.base
			c.Offs, err = s.u16View(cd.payload, nrows)
		} else {
			c.Ints, err = s.i64View(cd.payload, nrows)
		}
		if err != nil {
			return err
		}
		return s.loadNulls(c, cd, nrows)
	case colstore.EncDict:
		if cd.narrow {
			c.Codes8, err = s.u8View(cd.payload, nrows)
		} else {
			c.Codes16, err = s.u16View(cd.payload, nrows)
		}
		if err != nil {
			return err
		}
		if err = s.loadNulls(c, cd, nrows); err != nil {
			return err
		}
		raw, err := s.section(cd.dict)
		if err != nil {
			return fmt.Errorf("dict: %w", err)
		}
		d := Dec{b: raw}
		n := d.Count(1)
		if n > colstore.MaxDict {
			return fmt.Errorf("dict holds %d entries, more than 16-bit codes reach", n)
		}
		if cd.narrow && n > colstore.MaxDict8 {
			return fmt.Errorf("dict holds %d entries, more than 1-byte codes reach", n)
		}
		c.Dict = make([]string, n)
		for i := range c.Dict {
			c.Dict[i] = d.Str()
		}
		if d.err != nil {
			return d.err
		}
		if err := checkCodes(c.Codes8, len(c.Dict)); err != nil {
			return err
		}
		return checkCodes(c.Codes16, len(c.Dict))
	case colstore.EncValue:
		raw, err := s.section(cd.payload)
		if err != nil {
			return err
		}
		d := Dec{b: raw}
		c.Values = d.Vals()
		if d.err != nil {
			return d.err
		}
		if len(c.Values) != nrows {
			return fmt.Errorf("value stream has %d values, want %d", len(c.Values), nrows)
		}
		return nil
	case colstore.EncRLE:
		raw, err := s.section(cd.payload)
		if err != nil {
			return err
		}
		d := Dec{b: raw}
		c.RunVals = d.Vals()
		if d.err != nil {
			return d.err
		}
		if c.RunEnds, err = s.i32View(cd.dict, len(c.RunVals)); err != nil {
			return fmt.Errorf("run ends: %w", err)
		}
		return checkRunEnds(c.RunEnds, nrows)
	default:
		return fmt.Errorf("invalid encoding %d", cd.enc)
	}
}

// checkCodes fails on a dictionary code of either width that is not below
// entries.
func checkCodes[C colstore.Code](codes []C, entries int) error {
	for _, code := range codes {
		if int(code) >= entries {
			return fmt.Errorf("dict code %d out of range (%d entries)", code, entries)
		}
	}
	return nil
}

func (s *Segment) loadNulls(c *colstore.Column, cd *colDesc, nrows int) error {
	if cd.nulls == noSection {
		return nil
	}
	words := (nrows + 63) / 64
	var err error
	if c.Nulls, err = s.u64View(cd.nulls, words); err != nil {
		return fmt.Errorf("nulls: %w", err)
	}
	return nil
}

// The typed slice views. On a little-endian host with an aligned base
// (always true: sections are 8-aligned in the file, the mapping is
// page-aligned, and the fallback buffer is word-aligned) these alias
// the backing bytes with zero decode and zero per-value allocation.
// Otherwise they decode element-wise into a fresh slice.

func (s *Segment) numericSection(idx uint32, n, width int) ([]byte, error) {
	raw, err := s.section(idx)
	if err != nil {
		return nil, err
	}
	if len(raw) != n*width {
		return nil, fmt.Errorf("section %d holds %d bytes, want %d×%d", idx, len(raw), n, width)
	}
	return raw, nil
}

func viewOK(b []byte, align int) bool {
	return hostLittleEndian && (len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%uintptr(align) == 0)
}

func (s *Segment) f64View(idx uint32, n int) ([]float64, error) {
	raw, err := s.numericSection(idx, n, 8)
	if err != nil || n == 0 {
		return nil, err
	}
	if viewOK(raw, 8) {
		return unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), n), nil
	}
	out := make([]float64, n)
	d := Dec{b: raw}
	for i := range out {
		out[i] = d.F64()
	}
	return out, d.err
}

func (s *Segment) i64View(idx uint32, n int) ([]int64, error) {
	raw, err := s.numericSection(idx, n, 8)
	if err != nil || n == 0 {
		return nil, err
	}
	if viewOK(raw, 8) {
		return unsafe.Slice((*int64)(unsafe.Pointer(&raw[0])), n), nil
	}
	out := make([]int64, n)
	d := Dec{b: raw}
	for i := range out {
		out[i] = d.I64()
	}
	return out, d.err
}

func (s *Segment) u64View(idx uint32, n int) ([]uint64, error) {
	raw, err := s.numericSection(idx, n, 8)
	if err != nil || n == 0 {
		return nil, err
	}
	if viewOK(raw, 8) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&raw[0])), n), nil
	}
	out := make([]uint64, n)
	d := Dec{b: raw}
	for i := range out {
		out[i] = d.U64()
	}
	return out, d.err
}

// u8View returns the section itself: bytes need neither alignment nor
// decoding.
func (s *Segment) u8View(idx uint32, n int) ([]uint8, error) {
	raw, err := s.numericSection(idx, n, 1)
	if err != nil || n == 0 {
		return nil, err
	}
	return raw[:n:n], nil
}

func (s *Segment) u16View(idx uint32, n int) ([]uint16, error) {
	raw, err := s.numericSection(idx, n, 2)
	if err != nil || n == 0 {
		return nil, err
	}
	if viewOK(raw, 2) {
		return unsafe.Slice((*uint16)(unsafe.Pointer(&raw[0])), n), nil
	}
	out := make([]uint16, n)
	d := Dec{b: raw}
	for i := range out {
		out[i] = d.U16()
	}
	return out, d.err
}

func (s *Segment) i32View(idx uint32, n int) ([]int32, error) {
	raw, err := s.numericSection(idx, n, 4)
	if err != nil || n == 0 {
		return nil, err
	}
	if viewOK(raw, 4) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&raw[0])), n), nil
	}
	out := make([]int32, n)
	d := Dec{b: raw}
	for i := range out {
		out[i] = int32(d.U32())
	}
	return out, d.err
}

func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
