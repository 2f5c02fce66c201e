package linear

import (
	"math"
	"testing"

	"streamit/internal/vm"
	"streamit/internal/wfunc"
)

// kernelValues are the coefficients, constants and input items a
// FuzzToKernel case picks from: finite, so that no zero coefficient meets
// a non-finite item (the nest multiplies it; Rep.Apply skips it).
var kernelValues = []float64{1, -1, 0.5, -2.25, 3, 0.1, 1e-3, 7, -0.75, 100}

// toKernelSeeds are FuzzToKernel's seeds, each a case's bytes in
// decodeToKernel's order.
var toKernelSeeds = [][]byte{
	{},
	{0, 0, 3, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 6},                    // one row of four taps: a row kernel
	{3, 1, 2, 1, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5, 20}, // four rows, one constant: a rows span
	{5, 3, 1, 2, 6, 1, 5, 2, 0, 9, 3, 4, 4, 1, 8, 7, 7, 7, 7, 7, 30}, // six rows, constants that differ
	{1, 0, 0, 0, 1, 5, 3, 2, 1, 4},                                   // zero rows among the rows
	{2, 2, 2, 1, 2, 6, 2, 9, 9, 9, 9, 9, 9, 2, 1, 9},                 // zero columns
}

// decodeToKernel turns bytes into a rep and an input stream: Push 1–6,
// Pop 1–4, Peek ≥ Pop, rows and columns that may be all zero, and
// constants equal across rows or not.
func decodeToKernel(data []byte) (*Rep, []float64) {
	pick := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b % n
	}
	push, pop := pick(6)+1, pick(4)+1
	r := NewRep(pop+pick(5), pop, push)
	zeroCols := pick(1 << 4)
	bias := pick(3) // 0: none, 1: one constant for every row, 2: a constant per row
	b0 := kernelValues[pick(len(kernelValues))]
	for j, row := range r.A {
		zeroRow := pick(4) == 0
		for i := range row {
			if !zeroRow && zeroCols&(1<<(i%4)) == 0 {
				row[i] = kernelValues[pick(len(kernelValues))]
			}
		}
		switch bias {
		case 1:
			r.B[j] = b0
		case 2:
			r.B[j] = kernelValues[pick(len(kernelValues))]
		}
	}
	in := make([]float64, r.Peek+pick(9)*r.Pop+pick(r.Pop))
	for i := range in {
		in[i] = kernelValues[pick(len(kernelValues))] + float64(i%5)
	}
	return r, in
}

// runVM fires k on the VM over input as often as RunKernel does, through
// RunHeld with nothing held back, so a row kernel runs as lanes.
func runVM(t *testing.T, k *wfunc.Kernel, input []float64) []float64 {
	t.Helper()
	p, err := vm.Compile(k.Work)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.NewMachine(p)
	m.SetState(k.NewState())
	in, out := wfunc.NewRing(len(input)), wfunc.NewRing(0)
	in.Append(input)
	n := int64((len(input)-k.Peek)/k.Pop + 1)
	var fired int64
	if err := m.RunHeld(in, out, 1, n, 0, in.Pushed, &fired, nil); err != nil {
		t.Fatal(err)
	}
	return out.Take(nil, out.Len())
}

// FuzzToKernel decodes bytes into a rep and holds the kernel ToKernel
// generates for it to the interpreter bit for bit on the VM, and to
// Rep.Apply within VerifyEquivalent's tolerance.
func FuzzToKernel(f *testing.F) {
	for _, seed := range toKernelSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, input := decodeToKernel(data)
		k := ToKernel("M", r)
		want, err := wfunc.RunKernel(k, input)
		if err != nil {
			t.Fatal(err)
		}
		got := runVM(t, k, input)
		if len(got) != len(want) {
			t.Fatalf("%+v: the VM pushed %d items, the interpreter %d", r, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%+v: out[%d] = %v on the VM, %v in the interpreter", r, i, got[i], want[i])
			}
		}
		ref := runRep(t, r, input)
		for i := range want {
			if d := want[i] - ref[i]; d > 1e-6 || d < -1e-6 {
				t.Fatalf("%+v: out[%d] = %v, Rep.Apply gives %v", r, i, want[i], ref[i])
			}
		}
		if err := VerifyEquivalent(r, k, 4); err != nil {
			t.Fatal(err)
		}
	})
}

// TestToKernelIsOneNest: ToKernel's kernel is a row kernel when the rep
// pushes one item, and one rows span when it pushes more with one constant
// for every row; constants that differ keep the row loop generic.
func TestToKernelIsOneNest(t *testing.T) {
	for _, tc := range []struct {
		name       string
		push       int
		b          []float64
		row, spans bool
	}{
		{"one row", 1, []float64{0.5}, true, false},
		{"rows, no constant", 3, []float64{0, 0, 0}, false, true},
		{"rows, one constant", 3, []float64{2, 2, 2}, false, true},
		{"rows, constants that differ", 3, []float64{0, 1, 0}, false, false},
	} {
		r := NewRep(4, 2, tc.push)
		copy(r.B, tc.b)
		p, err := vm.Compile(ToKernel("M", r).Work)
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, _, rows := p.SpanCounts()
		if row := vm.NewMachine(p).RowKernel(); row != tc.row || (rows == 1) != tc.spans {
			t.Errorf("%s: row kernel %v, %d rows spans", tc.name, row, rows)
		}
	}
}
