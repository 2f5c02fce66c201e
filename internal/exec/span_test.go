package exec

import (
	"math"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/obs"
	"streamit/internal/vm"
	"streamit/internal/wfunc"
)

// spanOnly is a storage tape whose per-item reads are forbidden: a firing
// over it completes only if every read went through a span instruction.
type spanOnly struct {
	inner  wfunc.Window
	pushed []float64
}

func (*spanOnly) Peek(int) float64 { panic("per-item peek: a span's guard failed") }
func (*spanOnly) Pop() float64     { panic("per-item pop: a span's guard failed") }
func (t *spanOnly) Push(v float64) { t.pushed = append(t.pushed, v) }

func (t *spanOnly) Window() ([]float64, int, int, int) { return t.inner.Window() }
func (t *spanOnly) Advance(peeks, pops int)            { t.inner.Advance(peeks, pops) }

// windowKernel reads the tape through span instructions only: an 8-tap
// reduce over peeks, a 2-item reduce over pops, a 3-item drain.
func windowKernel() *wfunc.Kernel {
	kb := wfunc.NewKernel("window", 8, 5, 2)
	w := kb.FieldArray("w", 8, 0.5, -1.25, 2, 0.75, -3, 1.5, 0.125, -0.625)
	i, sum, head := kb.Local("i"), kb.Local("sum"), kb.Local("head")
	kb.WorkBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(8), wfunc.Set(sum, wfunc.AddX(sum, wfunc.MulX(wfunc.PeekX(i), wfunc.FIdx(w, i))))),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(2), wfunc.Set(head, wfunc.AddX(head, wfunc.PopE()))),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(3), wfunc.Pop1()),
		wfunc.Push1(sum), wfunc.Push1(head),
	)
	return kb.Build()
}

// TestSpanWindowsOfStorageTapes fires a kernel of span instructions over
// the two storage tapes of the timed paths in the states a straight run
// does not reach — a ring whose window wraps the buffer's end, a
// SliceQueue after Compact — and holds the result to the interpreter's
// per-item reads of an identical tape.
func TestSpanWindowsOfStorageTapes(t *testing.T) {
	k := windowKernel()
	prog, err := vm.Compile(k.Work)
	if err != nil {
		t.Fatal(err)
	}
	if r, d, m := prog.SpanCounts(); r != 2 || d != 1 || m != 0 {
		t.Fatalf("span instructions reduce/drain/move = %d/%d/%d, want 2/1/0", r, d, m)
	}
	item := func(i int) float64 { return math.Sin(float64(i)*0.9) * 3 }

	// wrapped: 16 slots, head at 12, 14 items buffered — two firings' worth,
	// the first window lying over the ring's end.
	wrapped := func() *channel {
		c := newChannel(16)
		for i := 0; i < 12; i++ {
			c.Push(0)
			c.Pop()
		}
		for i := 0; i < 14; i++ {
			c.Push(item(i))
		}
		if c.head+c.count <= len(c.buf) {
			t.Fatalf("the window does not wrap: head %d, count %d, %d slots", c.head, c.count, len(c.buf))
		}
		return c
	}
	// compacted: items popped off the front, the rest moved down by
	// Compact, more appended behind them.
	compacted := func() *SliceQueue {
		q := &SliceQueue{}
		q.Append([]float64{9, 9, 9, item(0), item(1), item(2)})
		for i := 0; i < 3; i++ {
			q.Pop()
		}
		q.Compact()
		if q.head != 0 || q.Len() != 3 {
			t.Fatalf("Compact left head %d, %d items", q.head, q.Len())
		}
		batch := make([]float64, 11)
		for i := range batch {
			batch[i] = item(i + 3)
		}
		q.Append(batch)
		return q
	}

	type storage interface {
		wfunc.Tape
		wfunc.Window
		Len() int
	}
	for name, mk := range map[string]func() storage{
		"channel wrapping the ring end": func() storage { return wrapped() },
		"SliceQueue after Compact":      func() storage { return compacted() },
	} {
		t.Run(name, func(t *testing.T) {
			ref, refOut := mk(), &SliceQueue{}
			env := wfunc.NewEnv(k.Work)
			env.State, env.In, env.Out = k.NewState(), ref, refOut

			got := mk()
			over := &spanOnly{inner: got}
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
			want := refOut.Take(nil, refOut.Len())
			if len(over.pushed) != len(want) {
				t.Fatalf("vm pushed %d items, interp %d", len(over.pushed), len(want))
			}
			for i := range want {
				if math.Float64bits(over.pushed[i]) != math.Float64bits(want[i]) {
					t.Errorf("output %d: vm %v, interp %v", i, over.pushed[i], want[i])
				}
			}
			for i := 0; i < ref.Len(); i++ {
				if math.Float64bits(got.Peek(i)) != math.Float64bits(ref.Peek(i)) {
					t.Errorf("buffered item %d: vm %v, interp %v", i, got.Peek(i), ref.Peek(i))
				}
			}
			if c, ok := got.(*channel); ok {
				if r := ref.(*channel); c.popped != r.popped || c.head != r.head {
					t.Errorf("ring after the spans: head %d popped %d, interp head %d popped %d", c.head, c.popped, r.head, r.popped)
				}
			}
		})
	}
}

// TestProfiledSpanCounts: the counting tape forwards its inner tape's
// window, so a profiled run takes the span instructions, and what they add
// to the profile in bulk equals what the interpreter's per-item calls add —
// peeks included, which the engine conformance sweep leaves out.
func TestProfiledSpanCounts(t *testing.T) {
	// One firing over a counting tape whose inner tape refuses per-item
	// reads: it completes only through the forwarded window.
	k := windowKernel()
	prog, err := vm.Compile(k.Work)
	if err != nil {
		t.Fatal(err)
	}
	ring := newChannel(16)
	for i := 0; i < 9; i++ {
		ring.Push(float64(i))
	}
	prof := obs.NewProfiler([]string{"window"})
	counting := &obsTape{inner: &spanOnly{inner: ring}, st: prof.At(0)}
	m := vm.NewMachine(prog)
	m.SetState(k.NewState())
	if err := m.Run(counting, counting, nil, nil); err != nil {
		t.Fatal(err)
	}
	if fp := prof.Snapshot()[0]; fp.Peeked != 8 || fp.Popped != 5 || fp.Pushed != 2 || ring.Len() != 4 {
		t.Fatalf("peeked/popped/pushed = %d/%d/%d with %d items left, want 8/5/2 with 4", fp.Peeked, fp.Popped, fp.Pushed, ring.Len())
	}

	app := apps.Suite()[0]
	for _, a := range apps.Suite() {
		if a.Name == "FMRadio" {
			app = a
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
