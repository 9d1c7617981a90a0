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

// Enc is the append-only little-endian encoder of segment footers and of
// the metadata blobs callers store in segments (sample-family
// descriptors, warmup sets): fixed-width integers, floats by bit pattern
// and the NaN-and-±0-exact value encoding that encoding/json cannot
// provide. Bulk numeric sections bypass it (see writer.go). The zero
// value is an empty buffer.
type Enc struct {
	buf []byte
}

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.buf }

// U8, U16, U32, U64, I64 and F64 append one fixed-width value, floats by
// bit pattern.
func (e *Enc) U8(v uint8)    { e.buf = append(e.buf, v) }
func (e *Enc) U16(v uint16)  { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *Enc) U32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *Enc) U64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *Enc) I64(v int64)   { e.U64(uint64(v)) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Raw appends b verbatim (no length prefix — pair with your own count).
func (e *Enc) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Val encodes one types.Value: kind byte then the kind's payload. Exact
// bit patterns round-trip (floats by bits, so NaN payloads and -0 are
// preserved — the losslessness contract the in-memory colstore keeps).
func (e *Enc) Val(v types.Value) {
	e.U8(uint8(v.Kind))
	switch v.Kind {
	case types.KindInt, types.KindBool:
		e.I64(v.I)
	case types.KindFloat:
		e.F64(v.F)
	case types.KindString:
		e.Str(v.S)
	}
}

// Vals encodes a value stream (count-prefixed).
func (e *Enc) Vals(vs []types.Value) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.Val(v)
	}
}

// errTruncated is the uniform decode-overrun error; callers wrap it with
// context. Every Dec accessor is bounds-checked so corrupt or truncated
// footers surface as errors, never as slice panics.
var errTruncated = fmt.Errorf("blockfile: truncated or corrupt data")

// Dec is the bounds-checked little-endian decoder matching Enc. Accessors
// return zero values once an error is latched; check Err at the end (or
// whenever a zero value would be ambiguous).
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec decodes b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail() {
	if d.err == nil {
		d.err = errTruncated
	}
}

// Remaining returns how many bytes are left.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// U8, U16, U32, U64, I64 and F64 read one fixed-width value, floats by
// bit pattern.
func (d *Dec) U8() uint8 {
	if d.err != nil || d.Remaining() < 1 {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *Dec) U16() uint16 {
	if d.err != nil || d.Remaining() < 2 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *Dec) U32() uint32 {
	if d.err != nil || d.Remaining() < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *Dec) U64() uint64 {
	if d.err != nil || d.Remaining() < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *Dec) I64() int64   { return int64(d.U64()) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := int(d.U32())
	if d.err != nil || n < 0 || d.Remaining() < n {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// Raw reads the next n bytes verbatim (a view into the input, not a
// copy). Returns nil with the error latched when fewer remain.
func (d *Dec) Raw(n int) []byte {
	if d.err != nil || n < 0 || d.Remaining() < n {
		d.fail()
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// Val reads one types.Value.
func (d *Dec) Val() types.Value {
	k := types.Kind(d.U8())
	switch k {
	case types.KindNull:
		return types.Value{}
	case types.KindInt, types.KindBool:
		return types.Value{Kind: k, I: d.I64()}
	case types.KindFloat:
		return types.Value{Kind: k, F: d.F64()}
	case types.KindString:
		return types.Value{Kind: k, S: d.Str()}
	default:
		d.fail()
		return types.Value{}
	}
}

// Count reads an element count and validates it against the bytes that
// could possibly back it (minBytes per element), so a forged count can
// never drive an allocation unrelated to the file's actual size.
func (d *Dec) Count(minBytes int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n < 0 || (minBytes > 0 && n > d.Remaining()/minBytes) {
		d.fail()
		return 0
	}
	return n
}

// Vals decodes a value stream: count then that many values.
func (d *Dec) Vals() []types.Value {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]types.Value, n)
	for i := range out {
		out[i] = d.Val()
		if d.err != nil {
			return nil
		}
	}
	return out
}
