package exec

import (
	"strings"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/wfunc"
)

// runLengthDecoder is a genuinely dynamic-rate filter: it pops a (count,
// value) pair and pushes count copies of value.
func runLengthDecoder() *ir.Filter {
	b := wfunc.NewKernel("RLDecode", 2, 2, 1)
	b.Dynamic()
	cnt := b.Local("cnt")
	v := b.Local("v")
	i := b.Local("i")
	b.WorkBody(
		wfunc.Set(cnt, wfunc.PopE()),
		wfunc.Set(v, wfunc.PopE()),
		wfunc.ForUp(i, wfunc.Ci(0), cnt, wfunc.Push1(v)),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// pairSource emits (count, value) pairs: (1,10), (2,20), (3,30), ...
func pairSource() *ir.Filter {
	b := wfunc.NewKernel("Pairs", 0, 0, 2)
	n := b.Field("n", 0)
	b.WorkBody(
		wfunc.Push1(wfunc.AddX(wfunc.Bin(wfunc.Mod, n, wfunc.C(3)), wfunc.C(1))),
		wfunc.Push1(wfunc.MulX(wfunc.AddX(wfunc.Bin(wfunc.Mod, n, wfunc.C(3)), wfunc.C(1)), wfunc.C(10))),
		wfunc.SetF(n, wfunc.AddX(n, wfunc.C(1))),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeVoid, Out: ir.TypeFloat}
}

// TestDynamicRunLengthDecoder: the dynamic engine executes a variable-rate
// program and produces the exact expansion.
func TestDynamicRunLengthDecoder(t *testing.T) {
	snk, got := SliceSink("out")
	prog := &ir.Program{Name: "rle", Top: ir.Pipe("main", pairSource(), runLengthDecoder(), snk)}
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamicOpts(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(12); err != nil {
		t.Fatal(err)
	}
	// Pairs (1,10),(2,20),(3,30) repeat: expansion 10, 20,20, 30,30,30, ...
	want := []float64{10, 20, 20, 30, 30, 30, 10, 20, 20, 30, 30, 30}
	if len(*got) < len(want) {
		t.Fatalf("got %d items, want >= %d", len(*got), len(want))
	}
	for i := range want {
		if (*got)[i] != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, (*got)[i], want[i])
		}
	}
}

// TestDynamicRejectedByStaticScheduler: the static pipeline refuses
// dynamic-rate filters with a clear error.
func TestDynamicRejectedByStaticScheduler(t *testing.T) {
	snk, _ := SliceSink("out")
	prog := &ir.Program{Name: "rle", Top: ir.Pipe("main", pairSource(), runLengthDecoder(), snk)}
	if _, err := New(prog); err == nil {
		t.Fatal("static engine should reject dynamic rates")
	}
}

// TestDynamicMatchesSequentialOnStaticProgram: for a static-rate program,
// the dynamic engine produces the same output stream (Kahn determinism).
func TestDynamicMatchesSequentialOnStaticProgram(t *testing.T) {
	build := func() (*ir.Program, *[]float64) {
		prog := apps.FMRadio(4, 16)
		pipe := prog.Top.(*ir.Pipeline)
		snk, got := SliceSink("cap")
		pipe.Children[len(pipe.Children)-1] = snk
		return prog, got
	}
	seqProg, seqGot := build()
	seqOut, err := RunCollect(seqProg, 60, seqGot)
	if err != nil {
		t.Fatal(err)
	}
	dynProg, dynGot := build()
	g, err := ir.Flatten(dynProg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamicOpts(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(40); err != nil {
		t.Fatal(err)
	}
	n := 40
	if len(seqOut) < n || len(*dynGot) < n {
		t.Fatalf("too few outputs: seq %d dyn %d", len(seqOut), len(*dynGot))
	}
	for i := 0; i < n; i++ {
		if seqOut[i] != (*dynGot)[i] {
			t.Fatalf("output %d: sequential %v, dynamic %v", i, seqOut[i], (*dynGot)[i])
		}
	}
}

// TestDynamicFeedbackLoop: dynamic execution handles feedback loops (the
// per-item channels interleave finely enough).
func TestDynamicFeedbackLoop(t *testing.T) {
	adder := func() *ir.Filter {
		b := wfunc.NewKernel("adder", 2, 2, 1)
		b.WorkBody(wfunc.Push1(wfunc.AddX(wfunc.PopE(), wfunc.PopE())))
		return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
	}()
	snk, got := SliceSink("out")
	prog := &ir.Program{Name: "fb", Top: ir.Pipe("main",
		SliceSource("ones", []float64{1}),
		&ir.FeedbackLoop{
			Name: "acc", Join: ir.RoundRobin(1, 1), Body: adder,
			Split: ir.Duplicate(), Delay: 1,
		},
		snk,
	)}
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamicOpts(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(5); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4, 5} // running sum of ones
	for i := range want {
		if (*got)[i] != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, (*got)[i], want[i])
		}
	}
}

// TestDynamicReportsNodeErrors: a runtime fault inside a node surfaces as
// an error naming the node rather than hanging the network.
func TestDynamicReportsNodeErrors(t *testing.T) {
	bad := func() *ir.Filter {
		b := wfunc.NewKernel("oob", 1, 1, 1)
		arr := b.FieldArray("a", 2)
		b.WorkBody(
			// Index 5 into a 2-element array: runtime error.
			wfunc.Push1(wfunc.FIdx(arr, wfunc.AddX(wfunc.PopE(), wfunc.C(5)))),
		)
		return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
	}()
	snk, _ := SliceSink("snk")
	prog := &ir.Program{Name: "p", Top: ir.Pipe("main",
		SliceSource("src", []float64{1}), bad, snk)}
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamicOpts(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = d.Run(10)
	if err == nil {
		t.Fatal("expected node error")
	}
	if !strings.Contains(err.Error(), "oob") {
		t.Errorf("error should name the node: %v", err)
	}
}
