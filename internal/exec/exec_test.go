package exec

import (
	"math"
	"strings"
	"testing"

	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

func gainFilter(name string, g float64) *ir.Filter {
	b := wfunc.NewKernel(name, 1, 1, 1)
	b.WorkBody(wfunc.Push1(wfunc.MulX(wfunc.PopE(), wfunc.C(g))))
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

func firFilter(name string, weights []float64) *ir.Filter {
	n := len(weights)
	b := wfunc.NewKernel(name, n, 1, 1)
	w := b.FieldArray("w", n, weights...)
	i := b.Local("i")
	sum := b.Local("sum")
	b.WorkBody(
		wfunc.Set(sum, wfunc.C(0)),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(n),
			wfunc.Set(sum, wfunc.AddX(sum, wfunc.MulX(wfunc.PeekX(i), wfunc.FIdx(w, i))))),
		wfunc.Pop1(),
		wfunc.Push1(sum),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

func TestPipelineValues(t *testing.T) {
	src := SliceSource("src", []float64{1, 2, 3, 4})
	snk, got := SliceSink("snk")
	prog := &ir.Program{Name: "p", Top: ir.Pipe("main", src, gainFilter("g", 10), snk)}
	out, err := RunCollect(prog, 8, got)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30, 40, 10, 20, 30, 40}
	if len(out) != len(want) {
		t.Fatalf("got %d items, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestFIRThroughEngine(t *testing.T) {
	src := SliceSource("src", []float64{1, 0, 0, 0, 0, 0, 0, 0})
	snk, got := SliceSink("snk")
	weights := []float64{0.5, 0.25, 0.125}
	prog := &ir.Program{Name: "p", Top: ir.Pipe("main", src, firFilter("fir", weights), snk)}
	out, err := RunCollect(prog, 6, got)
	if err != nil {
		t.Fatal(err)
	}
	// Impulse at position 0 every 8 samples: the impulse response appears
	// reversed? No: out[i] = sum_j in[i+j]*w[j], an anticausal correlation;
	// impulse at 0 shows w[0] at out[0] only (in[0+0]=1).
	if out[0] != 0.5 {
		t.Errorf("out[0] = %v, want 0.5", out[0])
	}
	if out[1] != 0 {
		t.Errorf("out[1] = %v, want 0", out[1])
	}
	// The impulse at index 8 is seen by out[5] looking ahead? out[5] peeks
	// in[5..7] = 0. Check steady repetition instead: out[6] peeks in[6..8],
	// in[8]=1 (next cycle) -> w[2]*1.
	if len(out) >= 7 && out[6] != 0.125 {
		t.Errorf("out[6] = %v, want 0.125", out[6])
	}
}

func TestRoundRobinSplitJoinValues(t *testing.T) {
	src := SliceSource("src", []float64{1, 2, 3, 4, 5, 6})
	snk, got := SliceSink("snk")
	sj := ir.SJ("sj", ir.RoundRobin(1, 1), ir.RoundRobin(1, 1),
		gainFilter("a", 10), gainFilter("b", 100))
	prog := &ir.Program{Name: "p", Top: ir.Pipe("main", src, sj, snk)}
	out, err := RunCollect(prog, 3, got)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 200, 30, 400, 50, 600}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestWeightedRoundRobinOrdering(t *testing.T) {
	// WRR(2,1) split and WRR(1,2) join: check exact item routing.
	src := SliceSource("src", []float64{1, 2, 3, 4, 5, 6})
	snk, got := SliceSink("snk")
	sj := ir.SJ("sj", ir.RoundRobin(2, 1), ir.RoundRobin(1, 2),
		// Branch a gets items 1,2 then 4,5; halves rate 2->1.
		func() *ir.Filter {
			b := wfunc.NewKernel("pairsum", 2, 2, 1)
			b.WorkBody(wfunc.Push1(wfunc.AddX(wfunc.PopE(), wfunc.PopE())))
			return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
		}(),
		// Branch b gets 3 then 6; doubles rate 1->2.
		func() *ir.Filter {
			b := wfunc.NewKernel("dup2", 1, 1, 2)
			x := b.Local("x")
			b.WorkBody(wfunc.Set(x, wfunc.PopE()), wfunc.Push1(x), wfunc.Push1(x))
			return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
		}(),
	)
	prog := &ir.Program{Name: "p", Top: ir.Pipe("main", src, sj, snk)}
	out, err := RunCollect(prog, 2, got)
	if err != nil {
		t.Fatal(err)
	}
	// Join WRR(1,2): a:3 (=1+2), b:3,3, a:9 (=4+5), b:6,6.
	want := []float64{3, 3, 3, 9, 6, 6}
	for i := range want {
		if i < len(out) && out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestDuplicateSplitValues(t *testing.T) {
	src := SliceSource("src", []float64{1, 2})
	snk, got := SliceSink("snk")
	sj := ir.SJ("sj", ir.Duplicate(), ir.RoundRobin(1, 1),
		gainFilter("x1", 1), gainFilter("x3", 3))
	prog := &ir.Program{Name: "p", Top: ir.Pipe("main", src, sj, snk)}
	out, err := RunCollect(prog, 2, got)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 2, 6}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestFeedbackLoopRunningSum(t *testing.T) {
	// Running sum via feedback: joiner RR(1,1) merges input with loop;
	// adder sums pairs; duplicate splitter sends result out and back.
	src := SliceSource("src", []float64{1, 2, 3, 4, 5})
	snk, got := SliceSink("snk")
	adder := func() *ir.Filter {
		b := wfunc.NewKernel("adder", 2, 2, 1)
		b.WorkBody(wfunc.Push1(wfunc.AddX(wfunc.PopE(), wfunc.PopE())))
		return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
	}()
	fl := &ir.FeedbackLoop{
		Name:  "acc",
		Join:  ir.RoundRobin(1, 1),
		Body:  adder,
		Split: ir.Duplicate(),
		Delay: 1, // initPath(0) = 0
	}
	prog := &ir.Program{Name: "p", Top: ir.Pipe("main", src, fl, snk)}
	out, err := RunCollect(prog, 5, got)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 6, 10, 15}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v (running sum)", i, out[i], want[i])
		}
	}
}

func TestFeedbackDoubler(t *testing.T) {
	// Geometric growth through feedback: body adds the external zero
	// stream to twice the fed-back value. Seed 1 -> outputs 2, 4, 8, ...
	src := SliceSource("zeros", []float64{0})
	snk, got := SliceSink("snk")
	double := func() *ir.Filter {
		b := wfunc.NewKernel("double", 2, 2, 1)
		b.WorkBody(wfunc.Push1(wfunc.AddX(wfunc.PopE(), wfunc.MulX(wfunc.PopE(), wfunc.C(2)))))
		return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
	}()
	fl := &ir.FeedbackLoop{
		Name:     "growloop",
		Join:     ir.RoundRobin(1, 1),
		Body:     double,
		Split:    ir.Duplicate(),
		Delay:    1,
		InitPath: func(i int) float64 { return 1 },
	}
	prog := &ir.Program{Name: "p", Top: ir.Pipe("main", src, fl, snk)}
	out, err := RunCollect(prog, 5, got)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 8, 16, 32}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestPeekingInitSchedule(t *testing.T) {
	// Moving average peek 4 pop 1: first output averages items 0..3.
	src := rampFilter("ramp")
	snk, got := SliceSink("snk")
	avg := func() *ir.Filter {
		b := wfunc.NewKernel("avg4", 4, 1, 1)
		i := b.Local("i")
		s := b.Local("s")
		b.WorkBody(
			wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(4),
				wfunc.Set(s, wfunc.AddX(s, wfunc.PeekX(i)))),
			wfunc.Pop1(),
			wfunc.Push1(wfunc.DivX(s, wfunc.C(4))),
		)
		return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
	}()
	prog := &ir.Program{Name: "p", Top: ir.Pipe("main", src, avg, snk)}
	out, err := RunCollect(prog, 5, got)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		want := (float64(i) + float64(i+1) + float64(i+2) + float64(i+3)) / 4
		if math.Abs(v-want) > 1e-12 {
			t.Errorf("out[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestStatefulAccumulator(t *testing.T) {
	src := SliceSource("src", []float64{1, 1, 1})
	snk, got := SliceSink("snk")
	acc := func() *ir.Filter {
		b := wfunc.NewKernel("acc", 1, 1, 1)
		a := b.Field("a", 0)
		b.WorkBody(wfunc.SetF(a, wfunc.AddX(a, wfunc.PopE())), wfunc.Push1(a))
		return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
	}()
	prog := &ir.Program{Name: "p", Top: ir.Pipe("main", src, acc, snk)}
	out, err := RunCollect(prog, 3, got)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

// TestPanicBecomesError: a buggy native kernel's panic surfaces as an
// error naming the node, on both the sequential and parallel backends.
func TestPanicBecomesError(t *testing.T) {
	buggy := func() *ir.Filter {
		b := wfunc.NewKernel("buggy", 1, 1, 1)
		b.WorkBody(wfunc.Push1(wfunc.PopE()))
		k := b.Build()
		return &ir.Filter{Kernel: k, In: ir.TypeFloat, Out: ir.TypeFloat,
			WorkFn: func(in, out wfunc.Tape, st *wfunc.State) {
				panic("kaboom")
			}}
	}
	mk := func() *ir.Program {
		snk, _ := SliceSink("snk")
		return &ir.Program{Name: "p", Top: ir.Pipe("main",
			SliceSource("src", []float64{1}), buggy(), snk)}
	}
	e, err := New(mk())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1); err == nil || !strings.Contains(err.Error(), "buggy") {
		t.Errorf("sequential: want node-named error, got %v", err)
	}

	prog := mk()
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := NewParallelOpts(g, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pe.Run(2); err == nil || !strings.Contains(err.Error(), "buggy") {
		t.Errorf("parallel: want node-named error, got %v", err)
	}
}
