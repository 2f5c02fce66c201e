package wire

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// record has one field of every kind the codec knows, plus a
// caller-encoded list behind a Count.
type record struct {
	U8     byte
	Flag   bool
	U32    uint32
	U64    uint64
	I64    int64
	F64    float64
	Str    string
	Blob   []byte
	Floats []float64
	List   []uint32
}

func (v *record) encode() []byte {
	w := append(Writer(nil), "MAGC"...)
	w.U8(v.U8)
	w.Bool(v.Flag)
	w.U32(v.U32)
	w.U64(v.U64)
	w.I64(v.I64)
	w.F64s([]float64{v.F64})
	w.Str(v.Str)
	w.Bytes(v.Blob)
	w.Floats(v.Floats)
	w.Count(len(v.List))
	for _, x := range v.List {
		w.U32(x)
	}
	return w
}

func decodeRecord(b []byte) (*record, error) {
	r := NewReader("wire: record", b)
	if string(r.Raw(4)) != "MAGC" {
		r.Failf("has a bad magic")
	}
	v := &record{U8: r.U8(), Flag: r.Bool(), U32: r.U32(), U64: r.U64(), I64: r.I64()}
	var f [1]float64
	r.F64s(f[:])
	v.F64, v.Str, v.Blob, v.Floats = f[0], r.Str(), r.Bytes(), r.Floats()
	v.List = make([]uint32, r.Count(4))
	for i := range v.List {
		v.List[i] = r.U32()
	}
	return v, r.Done()
}

var sample = &record{U8: 0xA5, Flag: true, U32: 0xDEADBEEF, U64: 1<<63 + 7, I64: -42,
	F64: math.Copysign(0, -1), Str: "héllo", Blob: []byte{0, 1, 2}, Floats: []float64{1.5, math.Inf(-1), 1e-300},
	List: []uint32{9, 8}}

func TestRoundTrip(t *testing.T) {
	b := sample.encode()
	want := "MAGC" + "\xA5\x01" + "\xEF\xBE\xAD\xDE" + "\x07\x00\x00\x00\x00\x00\x00\x80" +
		"\xD6\xFF\xFF\xFF\xFF\xFF\xFF\xFF" + "\x00\x00\x00\x00\x00\x00\x00\x80" +
		"\x06\x00\x00\x00h\xC3\xA9llo" + "\x03\x00\x00\x00\x00\x01\x02"
	if !strings.HasPrefix(string(b), want) {
		t.Fatalf("layout drifted:\n got %q\nwant %q...", b, want)
	}
	got, err := decodeRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sample) || math.Signbit(got.F64) != true {
		t.Fatalf("round trip: got %+v, want %+v", got, sample)
	}
	// Bytes copies, so the result survives the input buffer being reused.
	for i := range b {
		b[i] = 0xFF
	}
	if !reflect.DeepEqual(got.Blob, sample.Blob) {
		t.Fatal("Bytes aliases the input")
	}
}

// TestFloatRuns: F64s moves floats four at a time with a tail; every length
// around that width round-trips bit for bit, counted or not, and appends
// behind what the writer already holds.
func TestFloatRuns(t *testing.T) {
	for n := 0; n <= 13; n++ {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = math.Float64frombits(0x0102030405060708 * uint64(i+1))
		}
		w := append(Writer(nil), "xyz"...)
		w.Floats(vs)
		w.F64s(vs)
		r := NewReader("wire: floats", w)
		r.Raw(3)
		counted := r.Floats()
		bare := make([]float64, n)
		r.F64s(bare)
		if err := r.Done(); err != nil {
			t.Fatalf("%d floats: %v", n, err)
		}
		for i, v := range vs {
			if math.Float64bits(counted[i]) != math.Float64bits(v) || math.Float64bits(bare[i]) != math.Float64bits(v) {
				t.Fatalf("%d floats: item %d came back as %x and %x, want %x", n, i,
					math.Float64bits(counted[i]), math.Float64bits(bare[i]), math.Float64bits(v))
			}
		}
	}
}

// TestEqualF64s: EqualF64s holds a float run's encoding to the floats bit
// for bit — a flipped bit anywhere, -0 against +0 and a NaN's payload all
// differ — and a nil run (Raw after a fault) counts as equal, through the
// memory comparison and through the loop a big-endian host runs.
func TestEqualF64s(t *testing.T) {
	defer func(le bool) { littleEndian = le }(littleEndian)
	for _, le := range []bool{littleEndian, false} {
		littleEndian = le
		t.Run(fmt.Sprintf("memory=%v", le), testEqualF64s)
	}
}

func testEqualF64s(t *testing.T) {
	for n := 1; n <= 9; n++ {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = math.Float64frombits(0x0102030405060708 * uint64(i+1))
		}
		var w Writer
		w.F64s(vs)
		if !EqualF64s(vs, w) || !EqualF64s(vs, nil) {
			t.Fatalf("%d floats: their own encoding, or nil, compares unequal", n)
		}
		for i := range vs {
			for _, flip := range []uint64{1, 1 << 63} {
				other := append([]float64(nil), vs...)
				other[i] = math.Float64frombits(math.Float64bits(other[i]) ^ flip)
				if EqualF64s(other, w) {
					t.Fatalf("%d floats: item %d with bits %x flipped compares equal", n, i, flip)
				}
			}
		}
	}
	var w Writer
	w.F64s([]float64{0, math.NaN()})
	if EqualF64s([]float64{math.Copysign(0, -1), math.NaN()}, w) ||
		EqualF64s([]float64{0, math.Float64frombits(math.Float64bits(math.NaN()) + 1)}, w) {
		t.Fatal("-0 or another NaN payload compares equal")
	}
}

// TestEveryPrefixIsTruncated: cutting the encoding anywhere yields the
// truncation error under the caller's prefix, and one extra byte is
// rejected by Done.
func TestEveryPrefixIsTruncated(t *testing.T) {
	b := sample.encode()
	for n := 0; n < len(b); n++ {
		_, err := decodeRecord(b[:n])
		if err == nil {
			t.Fatalf("prefix of %d of %d bytes decoded", n, len(b))
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "wire: record truncated at offset ") {
			t.Fatalf("prefix of %d bytes: %q is not the truncation error", n, msg)
		}
	}
	_, err := decodeRecord(append(append([]byte(nil), b...), 0))
	if err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("trailing byte: %v", err)
	}
}

// TestHostileCount: a count of 2^32-1 fails for every element size —
// including ones whose product overflows a 32-bit int — before anything is
// sized by it.
func TestHostileCount(t *testing.T) {
	var w Writer
	w.U32(0xFFFFFFFF)
	w.U64(0)
	for _, elemSize := range []int{1, 2, 4, 8, 9, 13, 20, 1 << 20, math.MaxInt32} {
		r := NewReader("t", w)
		if n := r.Count(elemSize); n != 0 || r.Err() == nil {
			t.Fatalf("elemSize %d: Count = %d, err %v", elemSize, n, r.Err())
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, read := range []func(*Reader) int{
		func(r *Reader) int { return len(r.Floats()) },
		func(r *Reader) int { return len(r.Str()) },
		func(r *Reader) int { return len(r.Bytes()) },
	} {
		r := NewReader("t", w)
		if n := read(r); n != 0 || r.Err() == nil {
			t.Fatalf("hostile length read %d elements, err %v", n, r.Err())
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("hostile counts allocated %d bytes", grew)
	}
}

// TestFirstFaultSticks: after a fault every read is empty, Count is 0 so no
// loop runs, and neither later reads nor a later Failf replace the error.
func TestFirstFaultSticks(t *testing.T) {
	var w Writer
	w.U8(2) // not a bool
	w.Floats([]float64{1, 2})
	w.Str("abc")
	w.Count(3)
	r := NewReader("t", w)
	if r.Bool() {
		t.Fatal("flag 2 read as true")
	}
	first := r.Err()
	if first == nil || !strings.Contains(first.Error(), "flag 2 out of range at offset 0") {
		t.Fatalf("flag fault: %v", first)
	}
	if fs, s, b, n := r.Floats(), r.Str(), r.Bytes(), r.Count(1); fs != nil || s != "" || b != nil || n != 0 {
		t.Fatalf("reads after the fault returned %v %q %v %d", fs, s, b, n)
	}
	if r.U8() != 0 || r.U32() != 0 || r.U64() != 0 || r.I64() != 0 || r.Raw(1) != nil || r.Remaining() != 0 {
		t.Fatal("scalar reads after the fault are not zero")
	}
	r.Failf("semantic check on a zero value")
	if r.Err() != first || r.Done() != first {
		t.Fatalf("first fault replaced: %v", r.Err())
	}

	// A caller's Failf is a fault like any other: it wins if it is first.
	r = NewReader("exec: checkpoint", w)
	r.Failf("version %d not supported", 9)
	if n := r.Count(1); n != 0 {
		t.Fatalf("Count after Failf = %d", n)
	}
	if err := r.Done(); err == nil || err.Error() != "exec: checkpoint version 9 not supported" {
		t.Fatalf("Failf: %v", err)
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "session-1.ckpt")
	for _, content := range []string{"old envelope", "new"} {
		if err := WriteFile(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("read back %q, %v; want %q", got, err, content)
		}
	}
	// Private whatever the umask: images hold user data.
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("mode %v, %v", fi.Mode(), err)
	}
	// A failed write leaves the old file and no temporary behind.
	if err := os.Mkdir(filepath.Join(dir, "taken"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(dir, "taken"), []byte("x")); err == nil {
		t.Fatal("renaming over a directory succeeded")
	}
	if err := WriteFile(filepath.Join(dir, "missing", "f"), nil); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing directory: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 2 {
		t.Fatalf("directory holds %v, %v; want only the file and the directory", entries, err)
	}
}
