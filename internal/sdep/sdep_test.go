package sdep

import (
	"testing"
	"testing/quick"

	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

func filter(name string, peek, pop, push int) *ir.Filter {
	b := wfunc.NewKernel(name, peek, pop, push)
	var body []wfunc.Stmt
	for i := 0; i < pop; i++ {
		body = append(body, wfunc.Pop1())
	}
	for i := 0; i < push; i++ {
		body = append(body, wfunc.Push1(wfunc.C(0)))
	}
	b.WorkBody(body...)
	in, out := ir.TypeFloat, ir.TypeFloat
	if pop == 0 && peek == 0 {
		in = ir.TypeVoid
	}
	if push == 0 {
		out = ir.TypeVoid
	}
	return &ir.Filter{Kernel: b.Build(), In: in, Out: out}
}

func build(t *testing.T, s ir.Stream) (*ir.Graph, *sched.Schedule, *Calc) {
	t.Helper()
	g, err := ir.Flatten(&ir.Program{Name: "t", Top: s})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, sc, NewCalc(g, sc)
}

func edgeInto(g *ir.Graph, name string) *ir.Edge {
	for _, e := range g.Edges {
		if e.Dst.Kind == ir.NodeFilter && e.Dst.Filter.Kernel.Name == name {
			return e
		}
	}
	return nil
}

func edgeFrom(g *ir.Graph, name string) *ir.Edge {
	for _, e := range g.Edges {
		if e.Src.Kind == ir.NodeFilter && e.Src.Filter.Kernel.Name == name {
			return e
		}
	}
	return nil
}

// TestFilterClosedForms checks the paper's filter equations directly.
func TestFilterClosedForms(t *testing.T) {
	// peek 3, pop 2, push 2 (the paper's Figure "tapes" example).
	peek, pop, push := 3, 2, 2
	cases := []struct{ x, maxWant, minArg, minWant int64 }{
		{0, 0, 0, 0},
		{1, 0, 1, 3}, // one output item needs 1 firing: 2 pops + 1 extra peek
		{2, 0, 2, 3}, // first firing needs peek=3 items
		{3, 2, 3, 5}, // 3 items -> 1 firing -> 2 outputs
		{5, 4, 4, 5}, //
		{7, 6, 6, 7}, //
		{11, 10, 10, 11},
	}
	for _, c := range cases {
		if got := FilterMax(peek, pop, push, c.x); got != c.maxWant {
			t.Errorf("FilterMax(%d) = %d, want %d", c.x, got, c.maxWant)
		}
		if got := FilterMin(peek, pop, push, c.minArg); got != c.minWant {
			t.Errorf("FilterMin(%d) = %d, want %d", c.minArg, got, c.minWant)
		}
	}
}

// Property: FilterMax and FilterMin are adjoint-ish: producing exactly
// FilterMax(x) outputs needs at most x inputs, and FilterMin(y) inputs
// suffice for y outputs.
func TestQuickFilterMinMaxAdjoint(t *testing.T) {
	f := func(peekR, popR, pushR uint8, xR uint16) bool {
		pop := int(popR%8) + 1
		peek := pop + int(peekR%8)
		push := int(pushR%8) + 1
		x := int64(xR % 1000)
		y := FilterMax(peek, pop, push, x)
		if y > 0 && FilterMin(peek, pop, push, y) > x {
			return false
		}
		// And min is tight: one fewer input item yields fewer outputs.
		yy := int64(1 + xR%50)
		need := FilterMin(peek, pop, push, yy)
		return FilterMax(peek, pop, push, need) >= yy &&
			FilterMax(peek, pop, push, need-1) < yy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSimMatchesFilterClosedForm cross-checks the simulation-based Calc
// against the closed forms across a single filter.
func TestSimMatchesFilterClosedForm(t *testing.T) {
	peek, pop, push := 5, 2, 3
	p := ir.Pipe("main",
		filter("src", 0, 0, 1),
		filter("A", peek, pop, push),
		filter("snk", 1, 1, 0),
	)
	g, sc, c := build(t, p)
	in := edgeInto(g, "A")
	out := edgeFrom(g, "A")
	_ = sc
	for x := int64(1); x <= 40; x++ {
		want := FilterMax(peek, pop, push, x)
		got, err := c.Ma(in, out, x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Ma(in,out)(%d) = %d, closed form %d", x, got, want)
		}
		wantMin := FilterMin(peek, pop, push, x)
		gotMin, err := c.Mi(in, out, x)
		if err != nil {
			t.Fatal(err)
		}
		if gotMin != wantMin {
			t.Errorf("Mi(in,out)(%d) = %d, closed form %d", x, gotMin, wantMin)
		}
	}
}

// TestPipelineComposition checks the composition law across two filters:
// ma{x->z} = ma{y->z} ∘ ma{x->y} and mi{x->z} = mi{x->y} ∘ mi{y->z}.
func TestPipelineComposition(t *testing.T) {
	p := ir.Pipe("main",
		filter("src", 0, 0, 1),
		filter("A", 3, 2, 3),
		filter("B", 4, 4, 1),
		filter("snk", 1, 1, 0),
	)
	g, _, c := build(t, p)
	x := edgeInto(g, "A")
	y := edgeInto(g, "B")
	z := edgeFrom(g, "B")
	for v := int64(1); v <= 60; v++ {
		xy, _ := c.Ma(x, y, v)
		yz, _ := c.Ma(y, z, xy)
		xz, _ := c.Ma(x, z, v)
		if yz != xz {
			t.Errorf("max composition fails at %d: composed %d, direct %d", v, yz, xz)
		}
		zy, _ := c.Mi(y, z, v)
		yx, _ := c.Mi(x, y, zy)
		zx, _ := c.Mi(x, z, v)
		if yx != zx {
			t.Errorf("min composition fails at %d: composed %d, direct %d", v, yx, zx)
		}
	}
}

// TestRRSplitClosedForms checks the 2-way round-robin splitter equations
// against simulation.
func TestRRSplitClosedForms(t *testing.T) {
	sj := ir.SJ("sj", ir.RoundRobin(1, 1), ir.RoundRobin(1, 1),
		filter("a", 1, 1, 1), filter("b", 1, 1, 1))
	p := ir.Pipe("main", filter("src", 0, 0, 1), sj, filter("snk", 2, 2, 0))
	g, _, c := build(t, p)
	in := edgeFrom(g, "src") // splitter input
	outA := edgeInto(g, "a")
	outB := edgeInto(g, "b")
	for x := int64(1); x <= 30; x++ {
		gotA, _ := c.Ma(in, outA, x)
		gotB, _ := c.Ma(in, outB, x)
		if gotA != RRSplitMax1(x) {
			t.Errorf("split max1(%d) = %d, want %d", x, gotA, RRSplitMax1(x))
		}
		if gotB != RRSplitMax2(x) {
			t.Errorf("split max2(%d) = %d, want %d", x, gotB, RRSplitMax2(x))
		}
	}
}

// TestDuplicateSplitClosedForms checks the duplicate splitter's identity
// max function against simulation.
func TestDuplicateSplitClosedForms(t *testing.T) {
	sj := ir.SJ("sj", ir.Duplicate(), ir.RoundRobin(1, 1),
		filter("a", 1, 1, 1), filter("b", 1, 1, 1))
	p := ir.Pipe("main", filter("src", 0, 0, 1), sj, filter("snk", 2, 2, 0))
	g, _, c := build(t, p)
	in := edgeFrom(g, "src")
	outA := edgeInto(g, "a")
	for x := int64(1); x <= 30; x++ {
		got, _ := c.Ma(in, outA, x)
		if got != DupSplitMax(x) {
			t.Errorf("dup max(%d) = %d, want %d", x, got, x)
		}
	}
}

// TestJoinerWavefront: the joiner's output given items on one input is
// limited by the other branch, which here stays in lockstep.
func TestJoinerWavefront(t *testing.T) {
	sj := ir.SJ("sj", ir.RoundRobin(1, 1), ir.RoundRobin(1, 1),
		filter("a", 1, 1, 1), filter("b", 1, 1, 1))
	p := ir.Pipe("main", filter("src", 0, 0, 1), sj, filter("snk", 2, 2, 0))
	g, _, c := build(t, p)
	aOut := edgeFrom(g, "a") // joiner input 1
	joinOut := edgeInto(g, "snk")
	// With x items from branch a, branch b can deliver up to x as well
	// (driven by the shared source), so the joiner emits up to 2x.
	for x := int64(1); x <= 20; x++ {
		got, _ := c.Ma(aOut, joinOut, x)
		if got != 2*x {
			t.Errorf("joiner ma(%d) = %d, want %d", x, got, 2*x)
		}
	}
}

// TestSdepPeriodicity: tables extend periodically; large arguments match
// brute-force expectations for a rate-changing pipeline.
func TestSdepPeriodicity(t *testing.T) {
	p := ir.Pipe("main",
		filter("src", 0, 0, 2),
		filter("A", 3, 3, 5),
		filter("snk", 2, 2, 0),
	)
	g, _, c := build(t, p)
	in := edgeInto(g, "A")
	out := edgeFrom(g, "A")
	// Closed form with peek=pop=3, push=5. The producer (src) pushes 2 per
	// firing, so Ma arguments must be granule-aligned (even) to match the
	// closed form exactly, and Mi results are rounded up to the items that
	// physically appear on the tape (the realizable delivery point).
	for _, x := range []int64{100, 1000, 12346} {
		got, _ := c.Ma(in, out, x)
		want := FilterMax(3, 3, 5, x)
		if got != want {
			t.Errorf("Ma(%d) = %d, want %d", x, got, want)
		}
		gotMin, _ := c.Mi(in, out, x)
		wantMin := FilterMin(3, 3, 5, x)
		wantMin = (wantMin + 1) / 2 * 2 // quantize to src's push granule
		if gotMin != wantMin {
			t.Errorf("Mi(%d) = %d, want %d", x, gotMin, wantMin)
		}
	}
}

// TestMiMonotone: property — Mi and Ma are monotone non-decreasing.
func TestQuickMonotone(t *testing.T) {
	p := ir.Pipe("main",
		filter("src", 0, 0, 3),
		filter("A", 4, 2, 3),
		filter("B", 3, 3, 2),
		filter("snk", 1, 1, 0),
	)
	g, _, c := build(t, p)
	a := edgeInto(g, "A")
	b := edgeFrom(g, "B")
	f := func(x1, x2 uint16) bool {
		lo, hi := int64(x1%2000), int64(x2%2000)
		if lo > hi {
			lo, hi = hi, lo
		}
		m1, err1 := c.Mi(a, b, lo)
		m2, err2 := c.Mi(a, b, hi)
		M1, err3 := c.Ma(a, b, lo)
		M2, err4 := c.Ma(a, b, hi)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		return m1 <= m2 && M1 <= M2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUpstreamOrdering(t *testing.T) {
	p := ir.Pipe("main",
		filter("src", 0, 0, 1),
		filter("A", 1, 1, 1),
		filter("B", 1, 1, 1),
		filter("snk", 1, 1, 0),
	)
	g, _, c := build(t, p)
	a := edgeInto(g, "A")
	b := edgeInto(g, "snk")
	if !c.Upstream(a, b) {
		t.Error("a should be upstream of b")
	}
	if c.Upstream(b, a) {
		t.Error("b should not be upstream of a")
	}
	if _, err := c.Mi(b, a, 1); err == nil {
		t.Error("Mi with reversed tapes should error")
	}
}

// TestFeedbackMaxLoop: a balanced loop's wavefront satisfies
// maxloop(x) >= x (no deadlock); CheckFeedback passes.
func TestFeedbackMaxLoop(t *testing.T) {
	body := filter("body", 2, 2, 2)
	fl := &ir.FeedbackLoop{
		Name:  "loop",
		Join:  ir.RoundRobin(1, 1),
		Body:  body,
		Split: ir.RoundRobin(1, 1),
		Delay: 2,
	}
	p := ir.Pipe("main", filter("src", 0, 0, 1), fl, filter("snk", 1, 1, 0))
	g, sc, _ := build(t, p)
	if err := CheckFeedback(g, sc); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyEndToEnd(t *testing.T) {
	p := ir.Pipe("main",
		filter("src", 0, 0, 1),
		filter("A", 2, 1, 1),
		filter("snk", 1, 1, 0),
	)
	g, err := ir.Flatten(&ir.Program{Name: "t", Top: p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Compute(g); err != nil {
		t.Fatal(err)
	}
}

// TestInfoLatency: a chain of peeking filters accumulates information
// latency equal to the sum of its peek margins (for unit-rate filters).
func TestInfoLatency(t *testing.T) {
	p := ir.Pipe("main",
		filter("src", 0, 0, 1),
		filter("A", 5, 1, 1), // margin 4
		filter("B", 3, 1, 1), // margin 2
		filter("snk", 1, 1, 0),
	)
	g, _, c := build(t, p)
	a := edgeInto(g, "A")
	b := edgeInto(g, "snk")
	lat, err := InfoLatency(c, a, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 6 {
		t.Errorf("information latency = %d, want 6 (sum of peek margins)", lat)
	}
}

// Property: Ma and Mi form a Galois-like connection on realizable counts:
// with Mi(a,b,x) items on a, at least x items can appear on b.
func TestQuickGaloisConnection(t *testing.T) {
	p := ir.Pipe("main",
		filter("src", 0, 0, 2),
		filter("A", 5, 3, 4),
		filter("snk", 2, 2, 0),
	)
	g, _, c := build(t, p)
	a := edgeInto(g, "A")
	b := edgeFrom(g, "A")
	f := func(xr uint16) bool {
		x := int64(xr%500) + 1
		need, err := c.Mi(a, b, x)
		if err != nil {
			return false
		}
		got, err := c.Ma(a, b, need)
		if err != nil {
			return false
		}
		return got >= x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
