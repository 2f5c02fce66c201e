package exec

import (
	"math"
	"reflect"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/vm"
	"streamit/internal/wfunc"
)

// spanOnly is a storage tape whose per-item reads are forbidden: a firing
// over it completes only if every read went through a span instruction.
// Its pushes, per item or through a write span, land in out.
type spanOnly struct {
	inner wfunc.Window
	out   *wfunc.Ring
}

func (*spanOnly) Peek(int) float64 { panic("per-item peek: a span's guard failed") }
func (*spanOnly) Pop() float64     { panic("per-item pop: a span's guard failed") }
func (t *spanOnly) Push(v float64) { t.out.Push(v) }

func (t *spanOnly) Window() ([]float64, int, int, int)  { return t.inner.Window() }
func (t *spanOnly) Advance(pops int)                    { t.inner.Advance(pops) }
func (t *spanOnly) Reserve(n int) ([]float64, int, int) { return t.out.Reserve(n) }
func (t *spanOnly) Commit(pushes int)                   { t.out.Commit(pushes) }

// windowKernel reads the tape through span instructions only: an 8-tap
// reduce over peeks, an 8-trip map over peeks in reverse, a 2-item reduce
// over pops, a 3-item drain.
func windowKernel() *wfunc.Kernel {
	kb := wfunc.NewKernel("window", 8, 5, 10)
	w := kb.FieldArray("w", 8, 0.5, -1.25, 2, 0.75, -3, 1.5, 0.125, -0.625)
	i, sum, head := kb.Local("i"), kb.Local("sum"), kb.Local("head")
	kb.WorkBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(8), wfunc.Set(sum, wfunc.AddX(sum, wfunc.MulX(wfunc.PeekX(i), wfunc.FIdx(w, i))))),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(8), wfunc.Push1(wfunc.MulX(wfunc.PeekX(wfunc.SubX(wfunc.C(7), i)), wfunc.FIdx(w, i)))),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(2), wfunc.Set(head, wfunc.AddX(head, wfunc.PopE()))),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(3), wfunc.Pop1()),
		wfunc.Push1(sum), wfunc.Push1(head),
	)
	return kb.Build()
}

// TestSpanWindowsOfStorageTapes fires a kernel of span instructions over
// the one storage tape of the timed paths in states a straight run does
// not reach — a ring whose window wraps the buffer's end, a ring that grew
// while wrapped, its positions far from zero, an out ring whose write
// reservation wraps and then grows — and holds the result to the
// interpreter's per-item reads and pushes on identical rings.
func TestSpanWindowsOfStorageTapes(t *testing.T) {
	k := windowKernel()
	prog, err := vm.Compile(k.Work)
	if err != nil {
		t.Fatal(err)
	}
	if r, d, m, mp := prog.SpanCounts(); r != 2 || d != 1 || m != 0 || mp != 1 {
		t.Fatalf("span instructions reduce/drain/move/map = %d/%d/%d/%d, want 2/1/0/1", r, d, m, mp)
	}
	item := func(i int) float64 { return math.Sin(float64(i)*0.9) * 3 }

	// wrapped: 16 slots, head at 12, 14 items buffered — two firings' worth,
	// the first window lying over the ring's end.
	wrapped := func() *wfunc.Ring {
		c := wfunc.NewRing(16)
		for i := 0; i < 12; i++ {
			c.Push(0)
			c.Pop()
		}
		for i := 0; i < 14; i++ {
			c.Push(item(i))
		}
		if _, more := c.Stretches(); len(more) == 0 {
			t.Fatalf("the window does not wrap: popped %d, %d items, %d slots", c.Popped, c.Len(), slots(c))
		}
		return c
	}
	// grown: a 4-slot ring at position 1e9+3 holding three items that wrap,
	// then an 11-item batch that grows it to 16 slots around them, each item
	// staying at its position's slot — where the window wraps again.
	grown := func() *wfunc.Ring {
		c := wfunc.NewRing(4)
		c.Fill(1e9+3, []float64{item(0), item(1), item(2)})
		batch := make([]float64, 11)
		for i := range batch {
			batch[i] = item(i + 3)
		}
		c.Append(batch)
		if _, more := c.Stretches(); slots(c) != 16 || len(more) == 0 {
			t.Fatalf("the grown window does not wrap: %d slots, popped %d", slots(c), c.Popped)
		}
		return c
	}

	for name, mk := range map[string]func() *wfunc.Ring{
		"channel wrapping the ring end": wrapped,
		"channel grown while wrapped":   grown,
	} {
		t.Run(name, func(t *testing.T) {
			ref, refOut := mk(), wfunc.NewRing(0)
			env := wfunc.NewEnv(k.Work)
			env.State, env.In, env.Out = k.NewState(), ref, refOut

			got := mk()
			// The out ring's write end sits 12 slots into 16, so the first
			// firing's map reservation wraps the buffer's end and the second
			// grows the ring while wrapped.
			over := &spanOnly{inner: got, out: wfunc.NewRing(16)}
			over.out.Fill(12, nil)
			m := vm.NewMachine(prog)
			m.SetState(k.NewState())
			for firing := 0; firing < 2; firing++ {
				env.Reset()
				if err := wfunc.Exec(k.Work, env); err != nil {
					t.Fatalf("interp firing %d: %v", firing, err)
				}
				if err := m.Run(over, over, nil, nil); err != nil {
					t.Fatalf("vm firing %d: %v", firing, err)
				}
				if got.Len() != ref.Len() {
					t.Fatalf("firing %d: vm left %d items, interp %d", firing, got.Len(), ref.Len())
				}
			}
			want, pushed := refOut.Take(nil, refOut.Len()), over.out.Take(nil, over.out.Len())
			if len(pushed) != len(want) {
				t.Fatalf("vm pushed %d items, interp %d", len(pushed), len(want))
			}
			for i := range want {
				if math.Float64bits(pushed[i]) != math.Float64bits(want[i]) {
					t.Errorf("output %d: vm %v, interp %v", i, pushed[i], want[i])
				}
			}
			for i := 0; i < ref.Len(); i++ {
				if math.Float64bits(got.Peek(i)) != math.Float64bits(ref.Peek(i)) {
					t.Errorf("buffered item %d: vm %v, interp %v", i, got.Peek(i), ref.Peek(i))
				}
			}
			if got.Popped != ref.Popped || got.Pushed != ref.Pushed {
				t.Errorf("ring after the spans at %d..%d, interp's at %d..%d", got.Popped, got.Pushed, ref.Popped, ref.Pushed)
			}
		})
	}
}

// TestProfiledSpanCounts: a watched firing — profiled and tapped — runs
// its work on the filter's rings themselves, so it takes the span
// instructions, and the per-firing hook counts what the firing moved from
// ring positions: pops and pushes as position deltas, peeks as the
// declared window. Every filter of a profiled, traced, tapped and
// supervised engine is handed its rings, and the VM's profile equals the
// interpreter's on both engines.
func TestProfiledSpanCounts(t *testing.T) {
	// One firing whose input refuses per-item reads: it completes only
	// through span instructions.
	k := windowKernel()
	prog, err := vm.Compile(k.Work)
	if err != nil {
		t.Fatal(err)
	}
	host := ringHost{wfunc.NewRing(16), wfunc.NewRing(0)}
	for i := 0; i < 9; i++ {
		host[0].Push(float64(i))
	}
	prof := obs.NewProfiler([]string{"window"})
	var tapped []float64
	rt := &nodeRT{node: &ir.Node{Kind: ir.NodeFilter, Name: "window", Filter: &ir.Filter{Kernel: k},
		In: []*ir.Edge{{ID: 0}}, Out: []*ir.Edge{{ID: 1}}},
		state: k.NewState(), pst: prof.At(0), tap: func(v float64) { tapped = append(tapped, v) }}
	rt.runner = newWorkRunnerCompiled(k, rt.state, prog)
	rt.bind(host)
	rt.tin = &spanOnly{inner: rt.in}
	if err := (&core{eng: host}).fire(rt); err != nil {
		t.Fatal(err)
	}
	if fp := prof.Snapshot()[0]; fp.Peeked != 8 || fp.Popped != 5 || fp.Pushed != 10 || host[0].Len() != 4 || host[1].Len() != 10 {
		t.Fatalf("peeked/popped/pushed = %d/%d/%d with %d items left, want 8/5/10 with 4", fp.Peeked, fp.Popped, fp.Pushed, host[0].Len())
	}
	if !reflect.DeepEqual(tapped, []float64{0, 1, 2, 3, 4}) {
		t.Fatalf("the tap saw %v, want the five popped items", tapped)
	}

	app := apps.Suite()[0]
	for _, a := range apps.Suite() {
		if a.Name == "FMRadio" {
			app = a
		}
	}
	g, s := flattenApp(t, app)
	e, err := NewFromGraphOpts(g, s, Options{Profile: true, Trace: obs.NewRecorder(), OnError: mustPolicies(t, "retry")})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if n.Kind == ir.NodeFilter && n.InEdge() != nil {
			if err := e.TapSink(n.Name, func(float64) {}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	for _, rt := range e.nodes {
		if in := rt.node.InEdge(); rt.node.Kind == ir.NodeFilter && in != nil && rt.tin != wfunc.Tape(e.chans[in.ID]) {
			t.Fatalf("%s works on %T, not its ring", rt.node.Name, rt.tin)
		}
	}

	profile := func(backend Backend, mapped bool) []obs.FilterProfile {
		g, s := flattenApp(t, app)
		opts := Options{Backend: backend, Profile: true}
		if mapped {
			me, err := NewParallelOpts(g, s, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := me.Run(confIters); err != nil {
				t.Fatal(err)
			}
			return me.Profile().Snapshot()
		}
		e, err := NewFromGraphOpts(g, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(confIters); err != nil {
			t.Fatal(err)
		}
		return e.Profile().Snapshot()
	}
	for _, mapped := range []bool{false, true} {
		want, got := profile(BackendInterp, mapped), profile(BackendVM, mapped)
		if len(want) != len(got) {
			t.Fatalf("mapped=%v: %d profiled nodes on the vm, %d on the interpreter", mapped, len(got), len(want))
		}
		var peeked int64
		for i, w := range want {
			g := got[i]
			peeked += w.Peeked
			if g.Name != w.Name || g.Firings != w.Firings || g.Pushed != w.Pushed || g.Popped != w.Popped || g.Peeked != w.Peeked {
				t.Errorf("mapped=%v %s: vm firings/pushed/popped/peeked = %d/%d/%d/%d, interp (%s) %d/%d/%d/%d", mapped,
					g.Name, g.Firings, g.Pushed, g.Popped, g.Peeked, w.Name, w.Firings, w.Pushed, w.Popped, w.Peeked)
			}
		}
		if peeked == 0 {
			t.Errorf("mapped=%v: no peeks profiled: the case tests nothing", mapped)
		}
	}
}
