// Package wire is the repository's one binary codec. Every container —
// the engine checkpoint image and its SWPS trailer (internal/exec), the
// STRMSESS session envelope (internal/serve) and every STRW payload
// (internal/dist) — is a straight-line list of these primitives, all
// little-endian:
//
//	u8 | bool (u8 0/1) | u32 | u64 | i64 | f64 (IEEE bits as u64)
//	str, bytes: u32 length, then the bytes
//	floats:     u32 count, then count f64
//	count:      u32 element count of a caller-encoded list
//
// A Writer appends to a byte slice and cannot fail. A Reader is bounds
// checked and its error is sticky: the first fault wins, every later read
// returns the zero value and every later Count returns 0, so no list that
// starts after the fault has any elements. A loop already running when the
// fault hits keeps its count: it is harmless over a slice made from that
// count (the remaining elements stay zero), but a loop that allocates per
// element must also test Err. Decoders read their fields in order and check
// Err or Done once at the end. Every count is validated
// against the bytes that remain before the slice it sizes is allocated, so
// corrupt or hostile input produces an error, never a panic or a huge
// allocation.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"
)

// Writer accumulates an encoding. Unframed bytes (a magic) are appended
// directly: w = append(w, magic...).
type Writer []byte

// Spare is the free space w lends a caller that is about to Write to it (a
// bytes.Buffer and a bufio.Writer do): an encoding appended to it and then
// written lands in a reused buffer without an allocation or a copy. It is
// nil for any other writer.
func Spare(w io.Writer) []byte {
	if sb, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		return sb.AvailableBuffer()
	}
	return nil
}

func (w *Writer) U8(v byte)    { *w = append(*w, v) }
func (w *Writer) U32(v uint32) { *w = binary.LittleEndian.AppendUint32(*w, v) }
func (w *Writer) U64(v uint64) { *w = binary.LittleEndian.AppendUint64(*w, v) }
func (w *Writer) I64(v int64)  { w.U64(uint64(v)) }
func (w *Writer) Count(n int)  { w.U32(uint32(n)) }

func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

func (w *Writer) Str(s string) {
	w.Count(len(s))
	*w = append(*w, s...)
}

func (w *Writer) Bytes(p []byte) {
	w.Count(len(p))
	*w = append(*w, p...)
}

func (w *Writer) Floats(vs []float64) {
	w.Count(len(vs))
	w.F64s(vs)
}

// F64s appends vs with no count in front: a floats list the caller counted
// itself, possibly gathered from several slices. It grows the buffer once.
func (w *Writer) F64s(vs []float64) {
	n := len(*w)
	*w = slices.Grow(*w, 8*len(vs))[:n+8*len(vs)]
	b := (*w)[n:]
	// Four at a time: field arrays are most of every image, and the plain
	// loop spends two thirds of its time on its own bookkeeping.
	for ; len(vs) >= 4 && len(b) >= 32; vs, b = vs[4:], b[32:] {
		binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(vs[0]))
		binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(vs[1]))
		binary.LittleEndian.PutUint64(b[16:24], math.Float64bits(vs[2]))
		binary.LittleEndian.PutUint64(b[24:32], math.Float64bits(vs[3]))
	}
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
}

// Reader decodes one container. what prefixes its errors with the
// container's name ("exec: checkpoint", "dist: payload").
type Reader struct {
	what string
	b    []byte
	off  int
	err  error
}

// NewReader reads b as the container what names.
func NewReader(what string, b []byte) *Reader { return &Reader{what: what, b: b} }

// Err returns the first fault, nil while every read so far succeeded.
func (r *Reader) Err() error { return r.err }

// Failf records a semantic fault the caller found in values it read. Like
// the reader's own faults it sticks only if it is the first.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s %s", r.what, fmt.Sprintf(format, args...))
	}
}

// Remaining is the number of unread bytes, 0 after a fault.
func (r *Reader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.b) - r.off
}

// Done returns the first fault, or an error if unread bytes remain.
func (r *Reader) Done() error {
	if n := r.Remaining(); n > 0 {
		r.Failf("has %d trailing bytes", n)
	}
	return r.err
}

// Raw returns the next n bytes, aliasing the input; nil after a fault.
func (r *Reader) Raw(n int) []byte {
	if r.err == nil && (n < 0 || n > len(r.b)-r.off) {
		r.Failf("truncated at offset %d (want %d more bytes, have %d)", r.off, n, len(r.b)-r.off)
	}
	if r.err != nil {
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *Reader) U8() byte {
	if v := r.Raw(1); v != nil {
		return v[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if v := r.Raw(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if v := r.Raw(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool reads a flag byte; anything but 0 or 1 is a fault.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Failf("flag %d out of range at offset %d", v, r.off-1)
	}
	return v == 1
}

// Count reads the element count of a list whose elements take at least
// elemSize bytes each and checks it against the bytes that remain, so the
// caller may allocate count elements. The product is taken in 64 bits: a
// count of 2^32-1 is rejected where int is 32 bits too.
func (r *Reader) Count(elemSize int) int {
	n := r.U32()
	if r.err == nil && int64(n)*int64(elemSize) > int64(len(r.b)-r.off) {
		r.Failf("truncated at offset %d (count of %d elements of %d bytes, have %d bytes)", r.off, n, elemSize, len(r.b)-r.off)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *Reader) Str() string { return string(r.Raw(r.Count(1))) }

// Bytes returns a copy, so the result may outlive the input buffer.
func (r *Reader) Bytes() []byte { return append([]byte(nil), r.Raw(r.Count(1))...) }

func (r *Reader) Floats() []float64 {
	n := r.Count(8)
	if r.err != nil {
		return nil
	}
	vs := make([]float64, n)
	r.F64s(vs)
	return vs
}

// F64s fills vs with the next len(vs) floats: the elements of a floats list
// whose count the caller read, and checked, itself.
func (r *Reader) F64s(vs []float64) { DecodeF64s(vs, r.Raw(8*len(vs))) }

// DecodeF64s fills vs from b, the 8·len(vs) bytes Raw returned for them; a
// nil b (Raw after a fault) leaves vs as it is.
func DecodeF64s(vs []float64, b []byte) {
	if b == nil {
		return
	}
	for ; len(vs) >= 4 && len(b) >= 32; vs, b = vs[4:], b[32:] { // see Writer.F64s
		vs[0] = math.Float64frombits(binary.LittleEndian.Uint64(b[0:8]))
		vs[1] = math.Float64frombits(binary.LittleEndian.Uint64(b[8:16]))
		vs[2] = math.Float64frombits(binary.LittleEndian.Uint64(b[16:24]))
		vs[3] = math.Float64frombits(binary.LittleEndian.Uint64(b[24:32]))
	}
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// EqualF64s reports whether b, the 8·len(vs) bytes Raw returned for them,
// encodes vs bit for bit; a nil b (Raw after a fault) counts as equal. On a
// little-endian host the encoding is vs's own memory, so the comparison is
// one bytes.Equal.
func EqualF64s(vs []float64, b []byte) bool {
	switch {
	case b == nil:
		return true
	case littleEndian:
		return bytes.Equal(b, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 8*len(vs)))
	}
	for i, v := range vs {
		if binary.LittleEndian.Uint64(b[8*i:]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// littleEndian reports whether the host stores a float64 as its encoding.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1
