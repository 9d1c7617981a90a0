package blockfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"blinkdb/internal/types"
)

// hostLittleEndian reports whether the running machine stores multi-byte
// integers least-significant byte first. Segment payload sections are
// always little-endian on disk; on the (rare) big-endian host the
// zero-copy slice views are disabled and payloads decode element-wise.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// enc is an append-only little-endian encoder for footer and small
// metadata payloads. Bulk numeric sections bypass it (see writer.go).
type enc struct {
	buf []byte
}

func (e *enc) u8(v uint8)    { e.buf = append(e.buf, v) }
func (e *enc) u16(v uint16)  { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *enc) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// val encodes one types.Value: kind byte then the kind's payload. Exact
// bit patterns round-trip (floats by bits, so NaN payloads and -0 are
// preserved — the losslessness contract the in-memory colstore keeps).
func (e *enc) val(v types.Value) {
	e.u8(uint8(v.Kind))
	switch v.Kind {
	case types.KindInt, types.KindBool:
		e.i64(v.I)
	case types.KindFloat:
		e.f64(v.F)
	case types.KindString:
		e.str(v.S)
	}
}

// errTruncated is the uniform decode-overrun error; callers wrap it with
// context. Every dec accessor is bounds-checked so corrupt or truncated
// footers surface as errors, never as slice panics.
var errTruncated = fmt.Errorf("blockfile: truncated or corrupt data")

// dec is the bounds-checked little-endian decoder matching enc. After
// any accessor returns the zero value, check err.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = errTruncated
	}
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) u8() uint8 {
	if d.err != nil || d.remaining() < 1 {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if d.err != nil || d.remaining() < 2 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.remaining() < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.remaining() < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.remaining() < n {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) val() types.Value {
	k := types.Kind(d.u8())
	switch k {
	case types.KindNull:
		return types.Value{}
	case types.KindInt, types.KindBool:
		return types.Value{Kind: k, I: d.i64()}
	case types.KindFloat:
		return types.Value{Kind: k, F: d.f64()}
	case types.KindString:
		return types.Value{Kind: k, S: d.str()}
	default:
		d.fail()
		return types.Value{}
	}
}

// count reads an element count and validates it against the bytes that
// could possibly back it (minBytes per element), so a forged count can
// never drive an allocation unrelated to the file's actual size.
func (d *dec) count(minBytes int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || (minBytes > 0 && n > d.remaining()/minBytes) {
		d.fail()
		return 0
	}
	return n
}

// vals decodes a value stream: count then that many values.
func (d *dec) vals() []types.Value {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]types.Value, n)
	for i := range out {
		out[i] = d.val()
		if d.err != nil {
			return nil
		}
	}
	return out
}

// encVals encodes a value stream (count-prefixed).
func (e *enc) encVals(vs []types.Value) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.val(v)
	}
}

// Enc is the exported encoder for callers building metadata blobs in
// the segment codec (fixed-width little-endian, bit-exact values) —
// sample-family descriptors, warmup sets. It shares the wire format
// with the footer codec, including the NaN-and-±0-exact value
// encoding that encoding/json cannot provide.
type Enc struct{ e enc }

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.e.buf }

// U8 appends an unsigned byte.
func (e *Enc) U8(v uint8) { e.e.u8(v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.e.u32(v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.e.u64(v) }

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) { e.e.i64(v) }

// F64 appends a float64 by bit pattern.
func (e *Enc) F64(v float64) { e.e.f64(v) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) { e.e.str(s) }

// Val appends one types.Value (kind byte + exact payload).
func (e *Enc) Val(v types.Value) { e.e.val(v) }

// Raw appends b verbatim (no length prefix — pair with your own Count).
func (e *Enc) Raw(b []byte) { e.e.buf = append(e.e.buf, b...) }

// Dec is the exported bounds-checked decoder matching Enc. Accessors
// return zero values once an error is latched; check Err at the end
// (or whenever a zero value would be ambiguous).
type Dec struct{ d dec }

// NewDec decodes b.
func NewDec(b []byte) *Dec { return &Dec{d: dec{b: b}} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.d.err }

// Remaining returns how many bytes are left.
func (d *Dec) Remaining() int { return d.d.remaining() }

// U8 reads an unsigned byte.
func (d *Dec) U8() uint8 { return d.d.u8() }

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 { return d.d.u32() }

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 { return d.d.u64() }

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return d.d.i64() }

// F64 reads a float64 by bit pattern.
func (d *Dec) F64() float64 { return d.d.f64() }

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return d.d.str() }

// Val reads one types.Value.
func (d *Dec) Val() types.Value { return d.d.val() }

// Count reads an element count, validated against the bytes remaining
// (at least minBytes each), so corrupt counts cannot drive huge
// allocations.
func (d *Dec) Count(minBytes int) int { return d.d.count(minBytes) }

// Raw reads the next n bytes verbatim (a view into the input, not a
// copy). Returns nil with the error latched when fewer remain.
func (d *Dec) Raw(n int) []byte {
	if d.d.err != nil || n < 0 || d.d.remaining() < n {
		d.d.fail()
		return nil
	}
	b := d.d.b[d.d.off : d.d.off+n]
	d.d.off += n
	return b
}
