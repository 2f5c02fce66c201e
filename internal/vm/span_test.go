package vm

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"streamit/internal/wfunc"
)

// Differential tests of the span instructions: every loop below runs once
// on wfunc.Exec and once on the VM from the same starting state, and
// everything a firing can leave behind is compared — the error or panic
// text, the items still buffered, the items pushed and the field state.

// callTape counts the per-item calls made on a ring: reads on the input,
// pushes on the output. A span that ran natively makes none; one whose
// guard failed makes the interpreter's.
type callTape struct {
	*wfunc.Ring
	calls int
}

func (c *callTape) Peek(i int) float64 { c.calls++; return c.Ring.Peek(i) }
func (c *callTape) Pop() float64       { c.calls++; return c.Ring.Pop() }
func (c *callTape) Push(v float64)     { c.calls++; c.Ring.Push(v) }

// noWindow hides a tape's Window, like a tape that offers none.
type noWindow struct{ wfunc.Tape }

// Ways fireBoth can hand the tapes to a firing (nil: as they are).
func hideWindow(in, out wfunc.Tape) (wfunc.Tape, wfunc.Tape) { return noWindow{in}, noWindow{out} }
func noTapes(_, _ wfunc.Tape) (wfunc.Tape, wfunc.Tape)       { return nil, nil }
func noOut(in, _ wfunc.Tape) (wfunc.Tape, wfunc.Tape)        { return in, nil }

// outcome is what one firing leaves behind.
type outcome struct {
	err    string // error or recovered panic; empty when the firing completed
	left   int    // items still buffered on the input
	calls  int    // per-item reads of the input
	pushes int    // per-item pushes
	pushed []float64
	state  *wfunc.State
	sends  []string // teleport sends, as a recorder logs them
}

// fireBoth fires k's work function once on each backend over input, with a
// recorder for its sends; tapes, when set, stands between the tapes and the
// firing.
func fireBoth(t *testing.T, k *wfunc.Kernel, input []float64, tapes func(in, out wfunc.Tape) (wfunc.Tape, wfunc.Tape)) (interp, vm outcome) {
	t.Helper()
	p, err := Compile(k.Work)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	fire := func(run func(in, out wfunc.Tape, st *wfunc.State, msg wfunc.Messenger) error) (o outcome) {
		in, out := &callTape{Ring: ringOf(input...)}, &callTape{Ring: wfunc.NewRing(0)}
		rec := &recorder{}
		o.state = k.NewState()
		defer func() {
			if r := recover(); r != nil {
				o.err = fmt.Sprintf("panic: %v", r)
			}
			o.left, o.calls, o.pushes = in.Len(), in.calls, out.calls
			o.pushed = out.Take(nil, out.Len())
			o.sends = rec.log
		}()
		var tin, tout wfunc.Tape = in, out
		if tapes != nil {
			tin, tout = tapes(tin, tout)
		}
		if err := run(tin, tout, o.state, rec); err != nil {
			o.err = err.Error()
		}
		return o
	}
	interp = fire(func(in, out wfunc.Tape, st *wfunc.State, msg wfunc.Messenger) error {
		env := wfunc.NewEnv(k.Work)
		env.State, env.In, env.Out, env.Msg = st, in, out, msg
		return wfunc.Exec(k.Work, env)
	})
	vm = fire(func(in, out wfunc.Tape, st *wfunc.State, msg wfunc.Messenger) error {
		m := NewMachine(p)
		m.SetState(st)
		return m.Run(in, out, msg, nil)
	})
	return interp, vm
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameOutcome(t *testing.T, interp, vm outcome) {
	t.Helper()
	if interp.err != vm.err {
		t.Errorf("fault differs:\n  interp: %q\n  vm:     %q", interp.err, vm.err)
	}
	if interp.left != vm.left {
		t.Errorf("interp left %d items buffered, vm %d", interp.left, vm.left)
	}
	if !slices.Equal(interp.sends, vm.sends) {
		t.Errorf("sends differ:\n  interp: %q\n  vm:     %q", interp.sends, vm.sends)
	}
	if !sameBits(interp.pushed, vm.pushed) {
		t.Errorf("pushed items differ:\n  interp: %v\n  vm:     %v", interp.pushed, vm.pushed)
	}
	if !sameBits(interp.state.Scalars, vm.state.Scalars) {
		t.Errorf("field scalars differ:\n  interp: %v\n  vm:     %v", interp.state.Scalars, vm.state.Scalars)
	}
	for i := range interp.state.Arrays {
		if !sameBits(interp.state.Arrays[i], vm.state.Arrays[i]) {
			t.Errorf("field array %d differs:\n  interp: %v\n  vm:     %v", i, interp.state.Arrays[i], vm.state.Arrays[i])
		}
	}
}

// spanFixture is the frame the table's loops are written against: field
// arrays fa (8 elements) and fb (12), local arrays la and lb (10 each,
// filled before the loop), loop variable v, accumulator acc, and locals
// p = 1, q = 2 for run-time offsets.
type spanFixture struct {
	fa, fb, la, lb int
	fs             *wfunc.FieldRef
	v, acc, p, q   *wfunc.LocalRef
}

const (
	fixFA, fixFB, fixL = 8, 12, 10
	fixInput           = 24
)

// spanKernel wraps loop in the fixture: locals set up before it; the
// accumulator, the loop variable, p, q and both local arrays pushed after
// it, so that every local the loop can change is observable.
func spanKernel(name string, loop func(f *spanFixture) wfunc.Stmt) *wfunc.Kernel {
	kb := wfunc.NewKernel(name, 0, 0, 0).Dynamic()
	fav := make([]float64, fixFA)
	for i := range fav {
		fav[i] = math.Sin(float64(i)*0.7) + 0.25
	}
	fbv := make([]float64, fixFB)
	for i := range fbv {
		fbv[i] = float64(i*i)/8 - 3
	}
	f := &spanFixture{
		fa: kb.FieldArray("fa", fixFA, fav...), fb: kb.FieldArray("fb", fixFB, fbv...),
		la: kb.LocalArray("la", fixL), lb: kb.LocalArray("lb", fixL),
		fs: kb.Field("fs", 0.5),
		v:  kb.Local("v"), acc: kb.Local("acc"), p: kb.Local("p"), q: kb.Local("q"),
	}
	body := []wfunc.Stmt{wfunc.Set(f.p, wfunc.C(1)), wfunc.Set(f.q, wfunc.C(2)), wfunc.Set(f.acc, wfunc.C(0.125))}
	for i := 0; i < fixL; i++ {
		body = append(body,
			wfunc.SetLIdx(f.la, wfunc.Ci(i), wfunc.C(float64(i)*1.5-2)),
			wfunc.SetLIdx(f.lb, wfunc.Ci(i), wfunc.C(1/float64(i+1))))
	}
	body = append(body, loop(f), wfunc.Push1(f.acc), wfunc.Push1(f.v), wfunc.Push1(f.p), wfunc.Push1(f.q))
	for i := 0; i < fixL; i++ {
		body = append(body, wfunc.Push1(wfunc.LIdx(f.la, wfunc.Ci(i))), wfunc.Push1(wfunc.LIdx(f.lb, wfunc.Ci(i))))
	}
	return kb.WorkBody(body...).Build()
}

func ramp(n int) []float64 {
	in := make([]float64, n)
	for i := range in {
		in[i] = math.Cos(float64(i)*1.3) * 4
	}
	return in
}

// accum is acc = acc + x.
func (f *spanFixture) accum(x wfunc.Expr) wfunc.Stmt { return wfunc.Set(f.acc, wfunc.AddX(f.acc, x)) }

// upTo is for v = 0; v < n; v++ { body }.
func (f *spanFixture) upTo(n float64, body ...wfunc.Stmt) wfunc.Stmt {
	return &wfunc.For{Var: f.v.Idx, From: wfunc.C(0), To: wfunc.C(n), Body: body}
}

// matRows is apps.MatMul's row loop over the fixture, q its row and v
// its column: for q = 0; q < rows; q++ { acc = init; for v = 0; v < n;
// v++ { acc = acc + term }; push(acc) }, term peek(v+1) * fb[v+q*4] when
// nil, the pushes push(acc) when none are given.
func (f *spanFixture) matRows(rows float64, init, n, term wfunc.Expr, pushes ...wfunc.Stmt) wfunc.Stmt {
	if term == nil {
		term = wfunc.MulX(wfunc.PeekX(wfunc.AddX(f.v, wfunc.C(1))), wfunc.FIdx(f.fb, wfunc.AddX(f.v, wfunc.MulX(f.q, wfunc.C(4)))))
	}
	if len(pushes) == 0 {
		pushes = []wfunc.Stmt{wfunc.Push1(f.acc)}
	}
	return &wfunc.For{Var: f.q.Idx, From: wfunc.C(0), To: wfunc.C(rows), Body: append([]wfunc.Stmt{
		wfunc.Set(f.acc, init), &wfunc.For{Var: f.v.Idx, From: wfunc.C(0), To: n, Body: []wfunc.Stmt{f.accum(term)}}}, pushes...)}
}

// head is fuse.Chain's FIR head (FilterBank) over the fixture, q its row, v
// its tap and p its cursor: for q = 0; q < rows; q++ { v = 0; acc = 0;
// acc = 0.5; for v = 0; v < 8; v++ { acc = acc + peek(v) * fa[v] }; then
// tail }, tail pop(); la[p] = acc; p = p + 1 when none is given.
func (f *spanFixture) head(rows float64, tail ...wfunc.Stmt) wfunc.Stmt {
	if len(tail) == 0 {
		tail = []wfunc.Stmt{wfunc.Pop1(), f.store(f.la, f.p), f.step(1)}
	}
	return &wfunc.For{Var: f.q.Idx, From: wfunc.C(0), To: wfunc.C(rows), Body: append(append(f.prelude(),
		f.upTo(8, f.accum(wfunc.MulX(wfunc.PeekX(f.v), wfunc.FIdx(f.fa, f.v))))), tail...)}
}

// prelude is the head's row prelude, fuse's rezero then the FIR's own
// reset: v = 0; acc = 0; acc = 0.5.
func (f *spanFixture) prelude() []wfunc.Stmt {
	return []wfunc.Stmt{wfunc.Set(f.v, wfunc.C(0)), wfunc.Set(f.acc, wfunc.C(0)), wfunc.Set(f.acc, wfunc.C(0.5))}
}

// store is arr[ix] = acc; step is p = p + k.
func (f *spanFixture) store(arr int, ix wfunc.Expr) wfunc.Stmt { return wfunc.SetLIdx(arr, ix, f.acc) }
func (f *spanFixture) step(k float64) wfunc.Stmt               { return wfunc.Set(f.p, wfunc.AddX(f.p, wfunc.C(k))) }

type spanCase struct {
	name                              string
	loop                              func(f *spanFixture) wfunc.Stmt
	reduce, drain, move, mapped, rows int
}

// fixturePushes is how many items spanKernel pushes after its loop.
const fixturePushes = 4 + 2*fixL

// familyCases has one loop per family member and operand kind. With the
// fixture's full input every guard holds.
var familyCases = []spanCase{
	{"reduce peek*field", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.MulX(wfunc.PeekX(f.v), wfunc.FIdx(f.fa, f.v))))
	}, 1, 0, 0, 0, 0},
	{"reduce field*peek offset", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.MulX(wfunc.FIdx(f.fa, f.v), wfunc.PeekX(wfunc.AddX(f.v, wfunc.C(3))))))
	}, 1, 0, 0, 0, 0},
	{"reduce peek*peek", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.MulX(wfunc.PeekX(f.v), wfunc.PeekX(wfunc.AddX(wfunc.C(2), f.v)))))
	}, 1, 0, 0, 0, 0},
	{"reduce pop*field", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.MulX(wfunc.PopE(), wfunc.FIdx(f.fa, f.v))))
	}, 1, 0, 0, 0, 0},
	{"reduce local*pop", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.MulX(wfunc.LIdx(f.la, f.v), wfunc.PopE())))
	}, 1, 0, 0, 0, 0},
	{"reduce local*field, run-time offsets", func(f *spanFixture) wfunc.Stmt {
		// MatMul's shape: la[v+p] * fb[q*2+v].
		return f.upTo(8, f.accum(wfunc.MulX(
			wfunc.LIdx(f.la, wfunc.AddX(f.v, f.p)),
			wfunc.FIdx(f.fb, wfunc.AddX(wfunc.MulX(f.q, wfunc.C(2)), f.v)))))
	}, 1, 0, 0, 0, 0},
	{"reduce field*field, v-P", func(f *spanFixture) wfunc.Stmt {
		return &wfunc.For{Var: f.v.Idx, From: wfunc.AddX(f.p, f.q), To: wfunc.C(8), Step: wfunc.C(1), Body: []wfunc.Stmt{
			f.accum(wfunc.MulX(wfunc.FIdx(f.fa, wfunc.SubX(f.v, f.q)), wfunc.FIdx(f.fb, wfunc.SubX(f.v, wfunc.C(3)))))}}
	}, 1, 0, 0, 0, 0},
	{"sum peek", func(f *spanFixture) wfunc.Stmt { return f.upTo(8, f.accum(wfunc.PeekX(f.v))) }, 1, 0, 0, 0, 0},
	{"sum pop", func(f *spanFixture) wfunc.Stmt { return f.upTo(6, f.accum(wfunc.PopE())) }, 1, 0, 0, 0, 0},
	{"sum field", func(f *spanFixture) wfunc.Stmt { return f.upTo(8, f.accum(wfunc.FIdx(f.fa, f.v))) }, 1, 0, 0, 0, 0},
	{"sum local, fractional bound", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(7.5, f.accum(wfunc.LIdx(f.lb, wfunc.AddX(f.v, f.q))))
	}, 1, 0, 0, 0, 0},
	{"drain", func(f *spanFixture) wfunc.Stmt { return f.upTo(17, wfunc.Pop1()) }, 0, 1, 0, 0, 0},
	{"move field<-field", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetFIdx(f.fb, wfunc.AddX(f.v, f.q), wfunc.FIdx(f.fa, f.v)))
	}, 0, 0, 1, 0, 0},
	{"move local<-field", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetLIdx(f.la, wfunc.AddX(f.v, wfunc.C(1)), wfunc.FIdx(f.fa, f.v)))
	}, 0, 0, 1, 0, 0},
	{"move field<-local", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetFIdx(f.fa, f.v, wfunc.LIdx(f.lb, wfunc.AddX(f.p, f.v))))
	}, 0, 0, 1, 0, 0},
	{"move local<-local", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(10, wfunc.SetLIdx(f.la, f.v, wfunc.LIdx(f.lb, f.v)))
	}, 0, 0, 1, 0, 0},
	{"move down one array", func(f *spanFixture) wfunc.Stmt {
		// StatefulFIR's shift: h[i] = h[i+1].
		return f.upTo(7, wfunc.SetFIdx(f.fa, f.v, wfunc.FIdx(f.fa, wfunc.AddX(f.v, wfunc.C(1)))))
	}, 0, 0, 1, 0, 0},
	{"nested: outer variable in the offset", func(f *spanFixture) wfunc.Stmt {
		return &wfunc.For{Var: f.q.Idx, From: wfunc.C(0), To: wfunc.C(3), Body: []wfunc.Stmt{
			f.upTo(4, f.accum(wfunc.MulX(wfunc.PeekX(f.v), wfunc.FIdx(f.fb, wfunc.AddX(wfunc.MulX(f.q, wfunc.C(4)), f.v)))))}}
	}, 1, 0, 0, 0, 0},
	{"rows: MatMul", func(f *spanFixture) wfunc.Stmt { return f.matRows(3, wfunc.C(0.5), wfunc.C(4), nil) }, 1, 0, 0, 0, 1},
	{"rows: F first, descending rows, five of them", func(f *spanFixture) wfunc.Stmt {
		// Row q reads fb from 8-2q on: four rows in lanes, one alone.
		return f.matRows(5, wfunc.C(math.Copysign(0, -1)), wfunc.C(2), wfunc.MulX(
			wfunc.FIdx(f.fb, wfunc.AddX(f.v, wfunc.SubX(wfunc.C(8), wfunc.MulX(wfunc.C(2), f.q)))), wfunc.PeekX(wfunc.AddX(f.v, wfunc.C(3)))))
	}, 1, 0, 0, 0, 1},
	{"rows: MatMul stored at la[2q+1]", func(f *spanFixture) wfunc.Stmt {
		return f.matRows(3, wfunc.C(0.5), wfunc.C(4), nil, f.store(f.la, wfunc.AddX(wfunc.MulX(wfunc.C(2), f.q), wfunc.C(1))))
	}, 1, 0, 0, 0, 1},
	{"map permutation (DES's E-box)", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(20, wfunc.Push1(wfunc.PeekX(wfunc.Bin(wfunc.Mod, wfunc.MulX(f.v, wfunc.C(5)), wfunc.C(24)))))
	}, 0, 0, 0, 1, 0},
	{"map xor of two peeks", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(12, wfunc.Push1(wfunc.Bin(wfunc.BitXor, wfunc.PeekX(f.v), wfunc.PeekX(wfunc.AddX(f.v, wfunc.C(12))))))
	}, 0, 0, 0, 1, 0},
	{"map table lookup, two pushes a trip", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.Push1(wfunc.FIdx(f.fa, wfunc.Bin(wfunc.Mod, wfunc.MulX(f.v, wfunc.C(3)), wfunc.C(8)))),
			wfunc.Push1(wfunc.LIdx(f.lb, wfunc.SubX(wfunc.C(9), f.v))))
	}, 0, 0, 0, 1, 0},
	{"map body local reassigned (Serpent's S-box)", func(f *spanFixture) wfunc.Stmt {
		// acc is pushed after the loop: its last trip's value must be left.
		nibble := wfunc.Bin(wfunc.Mod, wfunc.Un(wfunc.Abs, wfunc.Un(wfunc.Trunc,
			wfunc.AddX(wfunc.MulX(wfunc.PeekX(wfunc.MulX(f.v, wfunc.C(2))), wfunc.C(2)), wfunc.PeekX(wfunc.AddX(wfunc.MulX(f.v, wfunc.C(2)), wfunc.C(1)))))), wfunc.C(12))
		return f.upTo(12, wfunc.Set(f.acc, nibble), wfunc.Set(f.acc, wfunc.FIdx(f.fb, f.acc)),
			wfunc.Push1(wfunc.Bin(wfunc.Mod, wfunc.DivX(f.acc, wfunc.C(8)), wfunc.C(2))),
			wfunc.Push1(wfunc.Bin(wfunc.Mod, f.acc, wfunc.C(2))))
	}, 0, 0, 0, 1, 0},
	{"map invariant field and local (MPEG-2's predictor)", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(16, wfunc.Set(f.acc, wfunc.AddX(wfunc.PeekX(f.v), f.fs)), wfunc.Push1(wfunc.MulX(f.acc, f.q)))
	}, 0, 0, 0, 1, 0},
	{"map ?: && || min max", func(f *spanFixture) wfunc.Stmt {
		x := wfunc.PeekX(f.v)
		return f.upTo(24,
			wfunc.Push1(&wfunc.Cond{C: wfunc.Bin(wfunc.Gt, x, wfunc.C(0)), A: wfunc.Bin(wfunc.Min, x, f.fs), B: wfunc.Bin(wfunc.Max, f.p, x)}),
			wfunc.Push1(wfunc.Bin(wfunc.Or, wfunc.Bin(wfunc.And, wfunc.Bin(wfunc.Gt, x, wfunc.C(1)), wfunc.Bin(wfunc.Lt, f.v, wfunc.C(9))),
				wfunc.Bin(wfunc.Eq, f.v, wfunc.C(20)))))
	}, 0, 0, 0, 1, 0},
	{"map trigonometry, division, shifts, modulo by zero", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(10, wfunc.Push1(wfunc.AddX(wfunc.Un(wfunc.Sin, wfunc.PeekX(f.v)), wfunc.DivX(wfunc.C(1), f.v))),
			wfunc.Push1(wfunc.Bin(wfunc.Shl, f.v, f.q)), wfunc.Push1(wfunc.Bin(wfunc.Mod, f.v, wfunc.SubX(f.p, wfunc.C(1)))),
			wfunc.Push1(wfunc.Un(wfunc.Neg, wfunc.SubX(f.v, wfunc.C(0.25)))))
	}, 0, 0, 0, 1, 0},
	{"map from a run-time start to a fractional bound", func(f *spanFixture) wfunc.Stmt {
		return &wfunc.For{Var: f.v.Idx, From: wfunc.AddX(f.p, f.q), To: wfunc.C(9.5), Body: []wfunc.Stmt{
			wfunc.Push1(wfunc.SubX(wfunc.LIdx(f.la, f.v), f.q))}}
	}, 0, 0, 0, 1, 0},
	{"map copies a constant into a body local", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(5, wfunc.Set(f.acc, wfunc.C(3)), wfunc.Push1(wfunc.AddX(f.acc, f.v)), wfunc.Set(f.acc, f.p))
	}, 0, 0, 0, 1, 0},
	{"map past one block of lanes", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(40, wfunc.Push1(wfunc.MulX(wfunc.PeekX(wfunc.Bin(wfunc.Mod, f.v, wfunc.C(24))), f.v)))
	}, 0, 0, 0, 1, 0},
	{"move from the tape", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetLIdx(f.la, f.v, wfunc.PeekX(f.v)))
	}, 0, 0, 0, 1, 0},
	{"map: an array store", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetLIdx(f.la, f.v, wfunc.PeekX(f.v)), wfunc.Push1(f.v))
	}, 0, 0, 0, 1, 0},
	{"map: strided stores into an edge array (a fused S-box)", func(f *spanFixture) wfunc.Stmt {
		// The shape fuse.Chain gives Serpent's S-box: a body local from the
		// previous edge array, then two stores a trip into the next one.
		nibble := wfunc.AddX(wfunc.MulX(wfunc.LIdx(f.lb, wfunc.MulX(f.v, wfunc.C(2))), wfunc.C(2)),
			wfunc.LIdx(f.lb, wfunc.AddX(wfunc.MulX(f.v, wfunc.C(2)), wfunc.C(1))))
		return f.upTo(5, wfunc.Set(f.acc, nibble),
			wfunc.SetLIdx(f.la, wfunc.MulX(f.v, wfunc.C(2)), wfunc.Bin(wfunc.Mod, f.acc, wfunc.C(2))),
			wfunc.SetLIdx(f.la, wfunc.AddX(wfunc.C(1), wfunc.MulX(wfunc.C(2), f.v)), wfunc.DivX(f.acc, wfunc.C(4))))
	}, 0, 0, 0, 1, 0},
	{"map: descending strided stores, two arrays", func(f *spanFixture) wfunc.Stmt {
		down := func(k float64) wfunc.Expr { return wfunc.AddX(wfunc.MulX(f.v, wfunc.C(-2)), wfunc.C(k)) }
		return f.upTo(5, wfunc.SetLIdx(f.la, down(9), wfunc.PeekX(f.v)), wfunc.SetLIdx(f.lb, f.v, wfunc.FIdx(f.fa, f.v)),
			wfunc.SetLIdx(f.la, down(8), wfunc.MulX(f.v, f.fs)), wfunc.Push1(wfunc.PeekX(wfunc.AddX(f.v, f.q))))
	}, 0, 0, 0, 1, 0},
	{"map: one statement's colliding stores land in trip order", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(20, wfunc.SetLIdx(f.la, wfunc.DivX(f.v, wfunc.C(3)), wfunc.PeekX(f.v)))
	}, 0, 0, 0, 1, 0},
	{"map: a store at a computed index", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(12, wfunc.SetLIdx(f.lb, wfunc.Bin(wfunc.Mod, wfunc.MulX(f.v, wfunc.C(7)), wfunc.C(10)), wfunc.PeekX(f.v)))
	}, 0, 0, 0, 1, 0},
}

// nearMisses look like family members and must compile to generic loops
// only.
var nearMisses = []spanCase{
	{"step 2", func(f *spanFixture) wfunc.Stmt {
		return &wfunc.For{Var: f.v.Idx, From: wfunc.C(0), To: wfunc.C(8), Step: wfunc.C(2), Body: []wfunc.Stmt{f.accum(wfunc.PeekX(f.v))}}
	}, 0, 0, 0, 0, 0},
	{"variable bound", func(f *spanFixture) wfunc.Stmt {
		return &wfunc.For{Var: f.v.Idx, From: wfunc.C(0), To: wfunc.MulX(f.q, wfunc.C(4)), Body: []wfunc.Stmt{f.accum(wfunc.PeekX(f.v))}}
	}, 0, 0, 0, 0, 0},
	{"two statements", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.PeekX(f.v)), wfunc.Pop1())
	}, 0, 0, 0, 0, 0},
	{"accumulator in an offset", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.FIdx(f.fb, wfunc.AddX(f.v, wfunc.MulX(f.acc, wfunc.C(0))))))
	}, 0, 0, 0, 0, 0},
	{"loop variable in an offset", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(4, f.accum(wfunc.PeekX(wfunc.AddX(f.v, f.v))))
	}, 0, 0, 0, 0, 0},
	{"loop variable as accumulator", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.Set(f.v, wfunc.AddX(f.v, wfunc.LIdx(f.lb, f.v))))
	}, 0, 0, 0, 0, 0},
	{"move up one array smears", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(7, wfunc.SetFIdx(f.fa, wfunc.AddX(f.v, wfunc.C(1)), wfunc.FIdx(f.fa, f.v)))
	}, 0, 0, 0, 0, 0},
	{"move within one array, run-time offset", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(7, wfunc.SetFIdx(f.fa, wfunc.AddX(f.v, f.p), wfunc.FIdx(f.fa, f.v)))
	}, 0, 0, 0, 0, 0},
	{"peek in an offset", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(4, f.accum(wfunc.FIdx(f.fb, wfunc.AddX(f.v, wfunc.Un(wfunc.Abs, wfunc.Un(wfunc.Trunc, wfunc.PeekE(0)))))))
	}, 0, 0, 0, 0, 0},
	{"array load in an offset", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(4, f.accum(wfunc.FIdx(f.fb, wfunc.AddX(f.v, wfunc.LIdx(f.la, wfunc.C(2))))))
	}, 0, 0, 0, 0, 0},
	{"field in an offset", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(4, f.accum(wfunc.FIdx(f.fb, wfunc.AddX(f.v, f.fs))))
	}, 0, 0, 0, 0, 0},
	{"addends swapped", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.Set(f.acc, wfunc.AddX(wfunc.PeekX(f.v), f.acc)))
	}, 0, 0, 0, 0, 0},
	{"pop beside peek", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.MulX(wfunc.PopE(), wfunc.PeekX(f.v))))
	}, 0, 0, 0, 0, 0},
	{"two pops", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.MulX(wfunc.PopE(), wfunc.PopE())))
	}, 0, 0, 0, 0, 0},
	{"descending index", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.FIdx(f.fa, wfunc.SubX(wfunc.C(7), f.v))))
	}, 0, 0, 0, 0, 0},
	{"strided index", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(4, f.accum(wfunc.PeekX(wfunc.MulX(f.v, wfunc.C(2)))))
	}, 0, 0, 0, 0, 0},
	{"field accumulator", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetF(f.fs, wfunc.AddX(f.fs, wfunc.PeekX(f.v))))
	}, 0, 0, 0, 0, 0},
	{"operand under a unary", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.Un(wfunc.Abs, wfunc.PeekX(f.v))))
	}, 0, 0, 0, 0, 0},
	{"map: body local read before the trip assigns it", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.Push1(f.acc), wfunc.Set(f.acc, wfunc.PeekX(f.v)))
	}, 0, 0, 0, 0, 0},
	{"map: a pop", func(f *spanFixture) wfunc.Stmt { return f.upTo(8, wfunc.Push1(wfunc.PopE())) }, 0, 0, 0, 0, 0},
	{"map: reads the array it stores to", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetLIdx(f.la, f.v, wfunc.AddX(wfunc.LIdx(f.la, f.v), wfunc.PeekX(f.v))))
	}, 0, 0, 0, 0, 0},
	{"map: two stores can hit one cell", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetLIdx(f.la, f.v, wfunc.PeekX(f.v)), wfunc.SetLIdx(f.la, wfunc.AddX(f.v, wfunc.C(1)), f.v))
	}, 0, 0, 0, 0, 0},
	{"map: a field-array store", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetFIdx(f.fa, f.v, wfunc.PeekX(f.v)), wfunc.Push1(f.v))
	}, 0, 0, 0, 0, 0},
	{"map: two stores to one array, index not affine", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(5, wfunc.SetLIdx(f.la, wfunc.Bin(wfunc.Mod, f.v, wfunc.C(5)), wfunc.PeekX(f.v)),
			wfunc.SetLIdx(f.la, wfunc.AddX(wfunc.Bin(wfunc.Mod, f.v, wfunc.C(5)), wfunc.C(5)), f.v))
	}, 0, 0, 0, 0, 0},
	{"map: a field store", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetF(f.fs, wfunc.PeekX(f.v)), wfunc.Push1(f.fs))
	}, 0, 0, 0, 0, 0},
	{"map: the loop variable assigned", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.Push1(f.v), wfunc.Set(f.v, wfunc.AddX(f.v, wfunc.C(1))))
	}, 0, 0, 0, 0, 0},
	{"map: no push", func(f *spanFixture) wfunc.Stmt { return f.upTo(8, wfunc.Set(f.acc, wfunc.PeekX(f.v))) }, 0, 0, 0, 0, 0},
	{"rows: inner bound not constant", func(f *spanFixture) wfunc.Stmt {
		return f.matRows(3, wfunc.C(0.5), wfunc.MulX(f.p, wfunc.C(4)), nil)
	}, 0, 0, 0, 0, 0},
	{"rows: acc not reset to a constant", func(f *spanFixture) wfunc.Stmt { return f.matRows(3, f.p, wfunc.C(4), nil) }, 1, 0, 0, 0, 0},
	{"rows: push(acc*2)", func(f *spanFixture) wfunc.Stmt {
		return f.matRows(3, wfunc.C(0.5), wfunc.C(4), nil, wfunc.Push1(wfunc.MulX(f.acc, wfunc.C(2))))
	}, 1, 0, 0, 0, 0},
	{"rows: a second push", func(f *spanFixture) wfunc.Stmt {
		return f.matRows(3, wfunc.C(0.5), wfunc.C(4), nil, wfunc.Push1(f.acc), wfunc.Push1(f.q))
	}, 1, 0, 0, 0, 0},
	{"rows: peek offset depends on the row", func(f *spanFixture) wfunc.Stmt {
		return f.matRows(3, wfunc.C(0.5), wfunc.C(4), wfunc.MulX(wfunc.PeekX(wfunc.AddX(f.v, f.q)), wfunc.FIdx(f.fb, f.v)))
	}, 1, 0, 0, 0, 0},
	{"rows: stride q*1.5", func(f *spanFixture) wfunc.Stmt {
		// One row, so that the inner span's run-time offset stays whole.
		return f.matRows(1, wfunc.C(0.5), wfunc.C(4), wfunc.MulX(wfunc.PeekX(f.v), wfunc.FIdx(f.fb, wfunc.AddX(f.v, wfunc.MulX(f.q, wfunc.C(1.5))))))
	}, 1, 0, 0, 0, 0},
	{"rows: a local-array operand", func(f *spanFixture) wfunc.Stmt {
		return f.matRows(3, wfunc.C(0.5), wfunc.C(4), wfunc.MulX(wfunc.LIdx(f.la, wfunc.AddX(f.v, f.q)), wfunc.FIdx(f.fb, f.v)))
	}, 1, 0, 0, 0, 0},
	{"rows: acc reused as the row variable", func(f *spanFixture) wfunc.Stmt {
		// acc ends its first row at 59 or more, which ends the loop.
		return &wfunc.For{Var: f.acc.Idx, From: wfunc.C(0), To: wfunc.C(3), Body: []wfunc.Stmt{
			wfunc.Set(f.acc, wfunc.C(100)),
			f.upTo(4, f.accum(wfunc.MulX(wfunc.PeekX(wfunc.AddX(f.v, wfunc.C(1))), wfunc.FIdx(f.fb, f.v)))),
			wfunc.Push1(f.acc)}}
	}, 1, 0, 0, 0, 0},
	{"rows: a pop before the reduce", func(f *spanFixture) wfunc.Stmt {
		return &wfunc.For{Var: f.q.Idx, From: wfunc.C(0), To: wfunc.C(5), Body: append(append(f.prelude(), wfunc.Pop1()),
			f.upTo(8, f.accum(wfunc.MulX(wfunc.PeekX(f.v), wfunc.FIdx(f.fa, f.v)))), f.store(f.la, f.p), f.step(1))}
	}, 1, 0, 0, 0, 0},
	{"rows: weights that move with the row under pops", func(f *spanFixture) wfunc.Stmt {
		return f.matRows(3, wfunc.C(0.5), wfunc.C(4), nil, wfunc.Pop1(), f.store(f.la, f.p), f.step(1))
	}, 1, 0, 0, 0, 0},
	// fuse.Chain's FIR heads pop between their rows, a shape no plan runs
	// since dead trips left each head one row: the row loop stays generic
	// around its inner reduce span.
	{"rows: a fused FIR head, one pop a row, stored at a cursor", func(f *spanFixture) wfunc.Stmt { return f.head(5) }, 1, 0, 0, 0, 0},
	{"rows: two pops a row, pushed", func(f *spanFixture) wfunc.Stmt { return f.head(4, wfunc.Pop1(), wfunc.Pop1(), wfunc.Push1(f.acc)) }, 1, 0, 0, 0, 0},
	{"rows: a head stored at la[2q+1]", func(f *spanFixture) wfunc.Stmt {
		return f.head(5, wfunc.Pop1(), f.store(f.lb, wfunc.AddX(wfunc.MulX(f.q, wfunc.C(2)), wfunc.C(1))))
	}, 1, 0, 0, 0, 0},
	// The rest pop nothing, so that a generic row makes no per-item call.
	{"rows: the cursor assigned in the prelude", func(f *spanFixture) wfunc.Stmt {
		return &wfunc.For{Var: f.q.Idx, From: wfunc.C(0), To: wfunc.C(5), Body: append(append([]wfunc.Stmt{wfunc.Set(f.p, wfunc.C(2))}, f.prelude()...),
			f.upTo(8, f.accum(wfunc.MulX(wfunc.PeekX(f.v), wfunc.FIdx(f.fa, f.v)))), f.store(f.la, f.p), f.step(1))}
	}, 1, 0, 0, 0, 0},
	{"rows: c = c + 2", func(f *spanFixture) wfunc.Stmt { return f.head(4, f.store(f.la, f.p), f.step(2)) }, 1, 0, 0, 0, 0},
	{"rows: a store of something other than acc", func(f *spanFixture) wfunc.Stmt {
		return f.head(4, wfunc.SetLIdx(f.la, f.p, f.v), f.step(1))
	}, 1, 0, 0, 0, 0},
	{"rows: a store to a field array", func(f *spanFixture) wfunc.Stmt {
		return f.head(4, wfunc.SetFIdx(f.fb, f.p, f.acc), f.step(1))
	}, 1, 0, 0, 0, 0},
	{"rows: a second store", func(f *spanFixture) wfunc.Stmt {
		return f.head(4, f.store(f.la, f.p), f.store(f.lb, f.p), f.step(1))
	}, 1, 0, 0, 0, 0},
	{"rows: the row variable as the cursor", func(f *spanFixture) wfunc.Stmt {
		return f.head(4, f.store(f.la, f.q), wfunc.Set(f.q, wfunc.AddX(f.q, wfunc.C(1))))
	}, 1, 0, 0, 0, 0},
	{"map: more registers than the cap", func(f *spanFixture) wfunc.Stmt {
		var e wfunc.Expr = f.v
		for i := 1; i <= mapRegs; i++ {
			e = wfunc.AddX(e, wfunc.C(float64(i)))
		}
		return f.upTo(8, wfunc.Push1(e))
	}, 0, 0, 0, 0, 0},
}

func TestSpanFamily(t *testing.T) {
	// The per-item calls a near miss makes outside its spans: a generic row
	// loop's pops.
	outside := map[string]int{"rows: a pop before the reduce": 5, "rows: weights that move with the row under pops": 3,
		"rows: a fused FIR head, one pop a row, stored at a cursor": 5, "rows: two pops a row, pushed": 8, "rows: a head stored at la[2q+1]": 5}
	for _, tc := range append(append([]spanCase(nil), familyCases...), nearMisses...) {
		t.Run(tc.name, func(t *testing.T) {
			k := spanKernel("span", tc.loop)
			p, err := Compile(k.Work)
			if err != nil {
				t.Fatal(err)
			}
			if r, d, m, mp, rw := p.SpanCounts(); r != tc.reduce || d != tc.drain || m != tc.move || mp != tc.mapped || rw != tc.rows {
				t.Fatalf("span instructions reduce/drain/move/map/rows = %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d",
					r, d, m, mp, rw, tc.reduce, tc.drain, tc.move, tc.mapped, tc.rows)
			}
			interp, vm := fireBoth(t, k, ramp(fixInput), nil)
			if interp.err != "" {
				t.Fatalf("the interpreter faulted: %s", interp.err)
			}
			sameOutcome(t, interp, vm)
			switch matched := tc.reduce+tc.drain+tc.move+tc.mapped+tc.rows > 0; {
			case matched && vm.calls != outside[tc.name]:
				t.Errorf("vm made %d per-item tape calls: the span's guard failed", vm.calls)
			case tc.mapped+tc.rows > 0 && vm.pushes != fixturePushes:
				t.Errorf("vm made %d per-item pushes, the fixture's %d: the write span's guard failed", vm.pushes, fixturePushes)
			case !matched && vm.calls != interp.calls:
				t.Errorf("vm made %d per-item tape calls, interp %d", vm.calls, interp.calls)
			}
			// The same loop over tapes that offer no window.
			interp, vm = fireBoth(t, k, ramp(fixInput), hideWindow)
			sameOutcome(t, interp, vm)
			if vm.calls != interp.calls || vm.pushes != interp.pushes {
				t.Errorf("no window: vm made %d per-item reads and %d pushes, interp %d and %d", vm.calls, vm.pushes, interp.calls, interp.pushes)
			}
		})
	}
}

// TestSpanBoundLimits: a bound the guard's integer arithmetic cannot hold
// keeps the loop generic (compiled only; such a loop runs until it faults).
func TestSpanBoundLimits(t *testing.T) {
	for _, bound := range []float64{math.Inf(1), math.NaN(), 1 << 30, -(1 << 30)} {
		k := spanKernel("bound", func(f *spanFixture) wfunc.Stmt { return f.upTo(bound, wfunc.Pop1()) })
		p, err := Compile(k.Work)
		if err != nil {
			t.Fatal(err)
		}
		if r, d, m, mp, rw := p.SpanCounts(); r+d+m+mp+rw != 0 {
			t.Errorf("bound %v: span instructions reduce/drain/move/map/rows = %d/%d/%d/%d/%d, want none", bound, r, d, m, mp, rw)
		}
	}
}

// TestSpanGuardFailures drives every way a recognised loop's guard can
// fail. The generic loop behind the span instruction must then behave as
// the interpreter does, item for item.
func TestSpanGuardFailures(t *testing.T) {
	from := func(f *spanFixture, from wfunc.Expr, n float64, body wfunc.Stmt) wfunc.Stmt {
		return &wfunc.For{Var: f.v.Idx, From: from, To: wfunc.C(n), Body: []wfunc.Stmt{body}}
	}
	fir := func(f *spanFixture) wfunc.Stmt { return f.accum(wfunc.MulX(wfunc.PeekX(f.v), wfunc.FIdx(f.fa, f.v))) }
	// perm is a map body: push(peek(v*5 % m)).
	perm := func(f *spanFixture, m float64) wfunc.Stmt {
		return wfunc.Push1(wfunc.PeekX(wfunc.Bin(wfunc.Mod, wfunc.MulX(f.v, wfunc.C(5)), wfunc.C(m))))
	}
	cases := []struct {
		name  string
		input int
		tapes func(in, out wfunc.Tape) (wfunc.Tape, wfunc.Tape)
		loop  func(f *spanFixture) wfunc.Stmt
		// fault is a fragment of the expected fault; empty: the firing
		// completes; "?": whatever the interpreter does on this platform.
		fault string
		// native: the span runs, although the case looks like a failure.
		native bool
	}{
		{"window one item short", 7, nil, func(f *spanFixture) wfunc.Stmt { return f.upTo(8, fir(f)) }, "peek(7)", false},
		{"window one item short of a pop", 5, nil, func(f *spanFixture) wfunc.Stmt { return f.upTo(6, f.accum(wfunc.PopE())) }, "pop on empty", false},
		{"window one item short of a drain", 16, nil, func(f *spanFixture) wfunc.Stmt { return f.upTo(17, wfunc.Pop1()) }, "pop on empty", false},
		{"offset peek one item short", 10, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(8, f.accum(wfunc.PeekX(wfunc.AddX(f.v, wfunc.C(3)))))
		}, "peek(10)", false},
		{"array one element short", fixInput, nil, func(f *spanFixture) wfunc.Stmt { return f.upTo(9, fir(f)) }, "array index 8 out of range [0,8)", false},
		{"move destination one element short", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(8, wfunc.SetFIdx(f.fb, wfunc.AddX(f.v, wfunc.C(5)), wfunc.FIdx(f.fa, f.v)))
		}, "array index 12 out of range [0,12)", false},
		{"move source one element short", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(9, wfunc.SetFIdx(f.fb, f.v, wfunc.FIdx(f.fa, f.v)))
		}, "array index 8 out of range [0,8)", false},
		{"offset below the array", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(8, f.accum(wfunc.FIdx(f.fa, wfunc.SubX(f.v, f.p))))
		}, "array index -1 out of range", false},
		{"negative start, array", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return from(f, wfunc.C(-1), 8, f.accum(wfunc.FIdx(f.fa, f.v)))
		}, "array index -1 out of range", false},
		{"negative start, peek", fixInput, nil, func(f *spanFixture) wfunc.Stmt { return from(f, wfunc.C(-1), 8, fir(f)) }, "peek(-1)", false},
		{"negative start, drain", fixInput, nil, func(f *spanFixture) wfunc.Stmt { return from(f, wfunc.C(-2), 3, wfunc.Pop1()) }, "", false},
		{"fractional start", fixInput, nil, func(f *spanFixture) wfunc.Stmt { return from(f, wfunc.C(0.5), 8, fir(f)) }, "", false},
		{"NaN start", fixInput, nil, func(f *spanFixture) wfunc.Stmt { return from(f, wfunc.C(math.NaN()), 8, fir(f)) }, "", false},
		{"fractional constant offset", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(8, f.accum(wfunc.PeekX(wfunc.AddX(f.v, wfunc.C(0.5)))))
		}, "", false},
		{"fractional run-time offset", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(7, f.accum(wfunc.FIdx(f.fa, wfunc.AddX(f.v, wfunc.MulX(f.p, wfunc.C(0.75))))))
		}, "", false},
		{"NaN run-time offset", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(2, f.accum(wfunc.FIdx(f.fa, wfunc.AddX(f.v, wfunc.MulX(f.p, wfunc.C(math.NaN()))))))
		}, "out of range", false},
		{"offset past the exact range", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(8, f.accum(wfunc.FIdx(f.fa, wfunc.AddX(f.v, wfunc.MulX(f.q, wfunc.C(1e12))))))
		}, "array index 2000000000000 out of range", false},
		{"zero trips", 0, nil, func(f *spanFixture) wfunc.Stmt { return from(f, wfunc.C(8), 8, fir(f)) }, "", false},
		{"start past the bound", 0, nil, func(f *spanFixture) wfunc.Stmt { return from(f, wfunc.C(12), 8, wfunc.Pop1()) }, "", false},
		{"no tape at all", 0, noTapes, func(f *spanFixture) wfunc.Stmt { return f.upTo(8, fir(f)) }, "peek outside work function", false},
		{"drain with no tape at all", 0, noTapes, func(f *spanFixture) wfunc.Stmt { return f.upTo(8, wfunc.Pop1()) }, "pop outside work function", false},

		{"rows: a MatMul's window one item short", 4, nil, func(f *spanFixture) wfunc.Stmt {
			return f.matRows(3, wfunc.C(0.5), wfunc.C(4), nil)
		}, "peek(4)", false},
		// The fused heads' row loops stay generic (TestSpanFamily): their
		// inner reduce spans fail here, or the generic code faults.
		{"rows head: the cursor one past the local array", fixInput, nil, func(f *spanFixture) wfunc.Stmt { return f.head(10) }, "array index 10 out of range [0,10)", false},
		{"rows head: the last row's window one item short", 11, nil, func(f *spanFixture) wfunc.Stmt { return f.head(5) }, "peek(7)", false},
		{"rows head: a negative fractional cursor", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			// int(-0.5) is index 0 to the interpreter; the guard wants a
			// whole start.
			return wfunc.IfS(wfunc.C(1), wfunc.Set(f.p, wfunc.C(-0.5)), f.head(5))
		}, "", false},
		{"rows head: la[2q+1] one cell short", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return f.head(6, wfunc.Pop1(), f.store(f.la, wfunc.AddX(wfunc.MulX(f.q, wfunc.C(2)), wfunc.C(1))))
		}, "array index 11 out of range [0,10)", false},
		{"rows head: pops past the window", 12, nil, func(f *spanFixture) wfunc.Stmt {
			return f.head(5, wfunc.Pop1(), wfunc.Pop1(), wfunc.Pop1(), f.store(f.la, f.p), f.step(1))
		}, "peek(", false},

		{"map: computed peek one past the window at trip 2", 10, nil, func(f *spanFixture) wfunc.Stmt { return f.upTo(8, perm(f, 11)) }, "peek(10)", false},
		{"map: computed peek one past the window in the second block", 20, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(30, wfunc.Push1(wfunc.PeekX(wfunc.SubX(f.v, wfunc.C(10)))))
		}, "peek(-10)", false},
		{"map: array index out of range at trip 6", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(8, wfunc.Push1(wfunc.FIdx(f.fb, wfunc.MulX(f.v, wfunc.C(2)))))
		}, "array index 12 out of range [0,12)", false},
		{"map: local array index below zero at trip 0", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(8, wfunc.Push1(wfunc.LIdx(f.la, wfunc.SubX(f.v, f.p))))
		}, "array index -1 out of range [0,10)", false},
		{"map: fractional computed index", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(8, wfunc.Push1(wfunc.PeekX(wfunc.MulX(f.v, wfunc.C(1.75)))))
		}, "", true},
		{"map: negative fractional computed index", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(8, wfunc.Push1(wfunc.FIdx(f.fa, wfunc.SubX(f.v, wfunc.C(0.5)))))
		}, "", false},
		{"map: NaN computed index", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(4, wfunc.Push1(wfunc.PeekX(wfunc.DivX(f.v, wfunc.SubX(f.v, f.v)))))
		}, "?", false},
		{"map: the side ?: skips would fault", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(8, wfunc.Push1(&wfunc.Cond{C: wfunc.Bin(wfunc.Lt, f.v, wfunc.C(100)), A: wfunc.PeekX(f.v), B: wfunc.PeekX(wfunc.AddX(f.v, wfunc.C(100)))}))
		}, "", false},
		{"map: no out tape", fixInput, noOut, func(f *spanFixture) wfunc.Stmt { return f.upTo(8, perm(f, 24)) }, "push outside work function", false},
		{"map: no tape at all", 0, noTapes, func(f *spanFixture) wfunc.Stmt { return f.upTo(8, perm(f, 24)) }, "peek outside work function", false},
		{"map: zero trips", fixInput, nil, func(f *spanFixture) wfunc.Stmt { return from(f, wfunc.C(8), 8, perm(f, 24)) }, "", false},
		{"map: start at spanLimit", fixInput, nil, func(f *spanFixture) wfunc.Stmt { return from(f, wfunc.C(spanLimit), 8, perm(f, 24)) }, "", false},
		{"map: negative start", fixInput, nil, func(f *spanFixture) wfunc.Stmt { return from(f, wfunc.C(-3), 8, perm(f, 24)) }, "peek(-15)", false},
		{"map: fractional start", fixInput, nil, func(f *spanFixture) wfunc.Stmt { return from(f, wfunc.C(0.5), 4, perm(f, 24)) }, "", false},
		{"map: NaN start", fixInput, nil, func(f *spanFixture) wfunc.Stmt { return from(f, wfunc.C(math.NaN()), 8, perm(f, 24)) }, "", false},
		{"map: store, then a computed peek past the window in the second block", 20, nil, func(f *spanFixture) wfunc.Stmt {
			// The first block's stores and the second block's first
			// statement have landed when the peek fails.
			return f.upTo(30, wfunc.SetLIdx(f.la, wfunc.Bin(wfunc.Mod, f.v, wfunc.C(10)), wfunc.MulX(f.v, wfunc.C(2))),
				wfunc.Push1(wfunc.PeekX(f.v)))
		}, "peek(20)", false},
		{"map: store index out of range at trip 7", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(8, wfunc.SetLIdx(f.lb, f.v, wfunc.PeekX(f.v)), wfunc.SetLIdx(f.la, wfunc.AddX(f.v, wfunc.C(3)), f.v))
		}, "array index 10 out of range [0,10)", false},
		{"map: stores, then the side ?: skips would fault", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			// The span gives up after its stores; the generic loop completes
			// and the fixture pushes both arrays.
			return f.upTo(8, wfunc.SetLIdx(f.la, f.v, wfunc.PeekX(f.v)),
				wfunc.Push1(&wfunc.Cond{C: wfunc.Bin(wfunc.Lt, f.v, wfunc.C(100)), A: f.v, B: wfunc.PeekX(wfunc.AddX(f.v, wfunc.C(100)))}))
		}, "", false},
		{"map: stores, then a negative fractional store index", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			// int(-0.5) is index 0 to the interpreter; the span's check
			// refuses it after lb's stores have landed.
			return f.upTo(8, wfunc.SetLIdx(f.lb, f.v, wfunc.PeekX(f.v)), wfunc.SetLIdx(f.la, wfunc.SubX(f.v, wfunc.C(0.5)), f.v))
		}, "", false},
		{"map: more items than one reservation", fixInput, nil, func(f *spanFixture) wfunc.Stmt {
			return f.upTo(mapMaxItems+1, wfunc.Push1(wfunc.PeekX(wfunc.Bin(wfunc.Mod, f.v, wfunc.C(24)))))
		}, "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := spanKernel("guard", tc.loop)
			p, err := Compile(k.Work)
			if err != nil {
				t.Fatal(err)
			}
			r, d, m, mp, rows := p.SpanCounts()
			if r+d+m+mp != 1 {
				t.Fatalf("the loop is not in the family (reduce/drain/move/map = %d/%d/%d/%d): the case tests nothing", r, d, m, mp)
			}
			interp, vm := fireBoth(t, k, ramp(tc.input), tc.tapes)
			if tc.fault != "?" && (tc.fault == "" && interp.err != "" || tc.fault != "" && !strings.Contains(interp.err, tc.fault)) {
				t.Fatalf("interpreter fault %q, want one containing %q", interp.err, tc.fault)
			}
			sameOutcome(t, interp, vm)
			switch head := strings.HasPrefix(tc.name, "rows head:"); {
			case head && rows > 0:
				t.Errorf("a rows span took a head that pops between its rows")
			case head:
			case tc.native && (vm.calls != 0 || vm.pushes != fixturePushes):
				t.Errorf("vm made %d per-item reads and %d pushes: the span did not run", vm.calls, vm.pushes)
			case !tc.native && rows > 0 && vm.calls == 0:
				// The generic row loop's inner reduce span reads natively;
				// its pops are per-item calls.
				t.Errorf("vm made no per-item reads: the guard let the rows span run")
			case !tc.native && rows == 0 && (vm.calls != interp.calls || vm.pushes != interp.pushes):
				t.Errorf("vm made %d per-item reads and %d pushes, interp %d and %d: the guard let the span run",
					vm.calls, vm.pushes, interp.calls, interp.pushes)
			}
		})
	}
}

// spanGen builds loops in and around the family from a stream of small
// choices: pick(n) returns a number in [0, n). TestRandomizedEquivalence
// feeds it a seeded generator, FuzzSpanKernel the fuzzer's bytes. Bounds,
// starts and offsets are free to overrun the window and the arrays.
type spanGen struct {
	pick     func(n int) int
	v, acc   *wfunc.LocalRef
	offs     []*wfunc.LocalRef // locals usable in offsets
	farrs    []int             // field arrays
	larrs    []int             // local arrays
	llens    []int             // their lengths, when rows are on
	tapeRead bool              // operands may peek and pop
	// i and field, when set, let loop emit matrix row loops: i is their
	// inner loop variable, and field(n) declares a field array of n
	// elements.
	i     *wfunc.LocalRef
	field func(n int) int
}

func (g *spanGen) index() wfunc.Expr {
	var off wfunc.Expr = wfunc.C(float64(g.pick(5) - 1))
	if len(g.offs) > 0 && g.pick(3) == 0 {
		off = g.offs[g.pick(len(g.offs))]
		if g.pick(2) == 0 {
			off = wfunc.MulX(off, wfunc.C(float64(g.pick(3))))
		}
	}
	switch g.pick(6) {
	case 0:
		return wfunc.AddX(off, g.v)
	case 1:
		return wfunc.SubX(g.v, off)
	case 2, 3:
		return wfunc.AddX(g.v, off)
	}
	return g.v
}

func (g *spanGen) array() wfunc.Expr {
	if g.pick(2) == 0 {
		return wfunc.FIdx(g.farrs[g.pick(len(g.farrs))], g.index())
	}
	return wfunc.LIdx(g.larrs[g.pick(len(g.larrs))], g.index())
}

func (g *spanGen) operand() wfunc.Expr {
	if g.tapeRead {
		switch g.pick(4) {
		case 0:
			return wfunc.PeekX(g.index())
		case 1:
			return wfunc.PopE()
		}
	}
	return g.array()
}

func (g *spanGen) loop() *wfunc.For {
	if g.i != nil && g.pick(4) == 0 {
		return g.rows()
	}
	f := &wfunc.For{Var: g.v.Idx, From: wfunc.C(float64(g.pick(4))), To: wfunc.C(float64(g.pick(20)) / 2)}
	switch g.pick(8) {
	case 0:
		f.From = wfunc.C(float64(g.pick(5))/2 - 1)
	case 1:
		f.Step = wfunc.C(float64(g.pick(2) + 1))
	}
	if g.pick(3) == 0 {
		f.Body = g.mapBody()
		return f
	}
	var body wfunc.Stmt
	switch g.pick(5) {
	case 0:
		body = wfunc.Pop1()
		if !g.tapeRead {
			body = wfunc.Set(g.acc, wfunc.AddX(g.acc, g.operand()))
		}
	case 1:
		body = wfunc.Set(g.acc, wfunc.AddX(g.acc, g.operand()))
	case 2:
		dst := g.array()
		lhs := wfunc.LValue{Kind: wfunc.LVLocalArr}
		switch d := dst.(type) {
		case *wfunc.FieldIndex:
			lhs = wfunc.LValue{Kind: wfunc.LVFieldArr, Idx: d.Arr, Index: d.Index}
		case *wfunc.LocalIndex:
			lhs.Idx, lhs.Index = d.Arr, d.Index
		}
		body = &wfunc.Assign{LHS: lhs, X: g.array()}
	default:
		body = wfunc.Set(g.acc, wfunc.AddX(g.acc, wfunc.MulX(g.operand(), g.operand())))
	}
	f.Body = []wfunc.Stmt{body}
	return f
}

// rows is a matrix row loop (dot.go), for v = From; v < R; v++ {
// prelude; for i = 0; i < N; i++ { acc = acc + peek(i+p) * F[i+a·v+b] };
// P pops; output } with the factors in either order, over a field array F
// declared to hold every row, or one element short. a may be 0, negative
// or MatMul's N. The prelude ends in acc = c; it may start with fuse's
// rezero (i = 0; acc = 0) or assign q or the cursor p. P runs from 0 to 3.
// The output is push(acc), la[p] = acc; p = p + 1 — p starting wherever
// the firing left it: negative, fractional or past the end — or
// la[s·v+t] with the rows' highest index la's last or one past it. A row
// loop that pops (P > 0) or stores at the cursor p is one of fuse's old
// FIR heads, which no rows span takes since dead trips: it runs as
// generic code around the inner reduce span.
func (g *spanGen) rows() *wfunc.For {
	r, n, p, from := g.pick(11), g.pick(6), g.pick(3), g.pick(3)
	a := []int{n, 0, -n, 1, -2}[g.pick(5)]
	last := max(r-1, from)
	lo, hi := min(a*from, a*last), max(a*from, a*last)
	b := g.pick(2) - lo // the lowest row starts at 0 or 1
	f := g.field(max(hi+b+n-g.pick(2), 1))
	var off wfunc.Expr = wfunc.AddX(wfunc.MulX(g.v, wfunc.Ci(a)), wfunc.Ci(b))
	if g.pick(2) == 0 {
		off = wfunc.SubX(wfunc.Ci(b), wfunc.MulX(wfunc.Un(wfunc.Neg, wfunc.Ci(a)), g.v))
	}
	var x wfunc.Expr = wfunc.PeekX(g.i)
	if p > 0 {
		x = wfunc.PeekX(wfunc.AddX(g.i, wfunc.Ci(p)))
	}
	w := wfunc.FIdx(f, wfunc.AddX(g.i, off))
	term := wfunc.MulX(x, w)
	if g.pick(2) == 0 {
		term = wfunc.MulX(w, x)
	}
	init := wfunc.C([]float64{0, math.Copysign(0, -1), 1.5, -2}[g.pick(4)])
	var body []wfunc.Stmt
	switch g.pick(4) {
	case 1:
		body = []wfunc.Stmt{wfunc.Set(g.i, wfunc.C(0)), wfunc.Set(g.acc, wfunc.C(0))}
	case 2:
		body = []wfunc.Stmt{wfunc.Set(g.offs[1], wfunc.C(float64(g.pick(4))))}
	case 3:
		body = []wfunc.Stmt{wfunc.Set(g.offs[0], wfunc.C(float64(g.pick(4))))}
	}
	body = append(body, wfunc.Set(g.acc, init), wfunc.ForUp(g.i, wfunc.Ci(0), wfunc.Ci(n), wfunc.Set(g.acc, wfunc.AddX(g.acc, term))))
	for range g.pick(4) {
		body = append(body, wfunc.Pop1())
	}
	k := g.pick(len(g.larrs))
	la, top := g.larrs[k], g.llens[k]-1+g.pick(2) // la's last index, or one past it
	switch g.pick(3) {
	case 0:
		body = append(body, wfunc.Push1(g.acc))
	case 1:
		body = append(body, wfunc.SetLIdx(la, g.offs[0], g.acc), wfunc.Set(g.offs[0], wfunc.AddX(g.offs[0], wfunc.C(1))))
	default:
		// Row v stores to la[s·v+t]; the rows' highest index is top.
		s := []int{1, 2, -1}[g.pick(3)]
		t := top - max(s*from, s*last)
		body = append(body, wfunc.SetLIdx(la, wfunc.AddX(wfunc.MulX(wfunc.Ci(s), g.v), wfunc.Ci(t)), g.acc))
	}
	return wfunc.ForUp(g.v, wfunc.Ci(from), wfunc.Ci(r), body...)
}

// mapBody is a body in and around the map family: one to four pushes or
// stores to the local arrays, assignments to acc between them — now and
// then read before the trip assigns it, which keeps the loop generic —
// over pure expressions. A store reads its value and index from the same
// expressions, so now and then it stores into an array the body reads,
// which keeps the loop generic too.
func (g *spanGen) mapBody() []wfunc.Stmt {
	var body []wfunc.Stmt
	set := g.pick(4) == 0 // acc is readable: a loop-carried read when not yet assigned
	stride := g.pick(3) + 1
	for n := g.pick(4) + 1; n > 0; n-- {
		if g.pick(2) == 0 {
			body = append(body, wfunc.Set(g.acc, g.pure(3, set)))
			set = true
		}
		if g.pick(3) == 0 {
			body = append(body, wfunc.SetLIdx(g.larrs[g.pick(len(g.larrs))], g.storeIndex(stride, set), g.pure(3, set)))
			continue
		}
		body = append(body, wfunc.Push1(g.pure(3, set)))
	}
	return body
}

// storeIndex is a store's index: mostly stride·v + k with k up to stride,
// so that two stores to one array are disjoint unless their k are equal or
// stride apart, now and then a generated index (v plus an offset) or a
// computed one.
func (g *spanGen) storeIndex(stride int, acc bool) wfunc.Expr {
	switch g.pick(4) {
	case 0:
		return g.index()
	case 1:
		return g.pure(2, acc)
	}
	return wfunc.AddX(wfunc.MulX(g.v, wfunc.Ci(stride)), wfunc.Ci(g.pick(stride+1)))
}

// pure is a pure expression of depth at most d: constants, the loop
// variable, offset locals, acc when readable, peeks and array reads at
// generated or computed indices, under the operators a map span runs
// natively and a sample of those it hands to wfunc.EvalBinary and
// wfunc.EvalUnary.
func (g *spanGen) pure(d int, acc bool) wfunc.Expr {
	if d == 0 || g.pick(3) == 0 {
		switch g.pick(6) {
		case 0:
			return wfunc.C(float64(g.pick(9)-2) / 2)
		case 1:
			return g.v
		case 2:
			if acc {
				return g.acc
			}
			return g.offs[g.pick(len(g.offs))]
		case 3:
			if g.tapeRead {
				return wfunc.PeekX(g.index())
			}
		}
		return g.array()
	}
	x := func() wfunc.Expr { return g.pure(d-1, acc) }
	switch g.pick(12) {
	case 0:
		return &wfunc.Cond{C: x(), A: x(), B: x()}
	case 1:
		return wfunc.Bin(wfunc.And, x(), x())
	case 2:
		return wfunc.Bin(wfunc.Or, x(), x())
	case 3:
		return wfunc.Bin(wfunc.Mod, x(), x())
	case 4:
		return wfunc.Bin(wfunc.BitXor, x(), x())
	case 5:
		return wfunc.Bin([]wfunc.BinOp{wfunc.Min, wfunc.Max}[g.pick(2)], x(), x())
	case 6:
		return wfunc.Un(wfunc.Sin, x())
	case 7:
		// A computed index, free to be fractional, negative or NaN.
		if g.tapeRead && g.pick(2) == 0 {
			return wfunc.PeekX(x())
		}
		return wfunc.FIdx(g.farrs[g.pick(len(g.farrs))], x())
	default:
		return wfunc.Bin([]wfunc.BinOp{wfunc.Add, wfunc.Sub, wfunc.Mul, wfunc.Div}[g.pick(4)], x(), x())
	}
}

// FuzzSpanKernel decodes bytes into a kernel of three generated loops over
// arrays and a window of fuzzed lengths — items now and then NaN or ±Inf,
// the window at any offset into its ring, so that it may wrap — and holds
// the VM to the interpreter's outcome, faults included; the kernel ends by
// pushing every cell of both local arrays, so a store a span made out of
// place shows.
func FuzzSpanKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 5, 12, 1, 0, 8, 3, 3, 0, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 3, 4, 0, 16, 0, 0, 1, 1, 1, 4, 4, 4, 2, 2, 2, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{9, 9, 20, 2, 2, 19, 2, 0, 0, 0, 1, 0, 0, 2, 19, 2, 1, 1, 1, 1, 3, 18, 4, 4})
	// A 9-row MatMul of 4 columns from peek(1) on, its window wrapping the
	// ring; a NaN and a -Inf lie behind the window.
	f.Add([]byte{0, 0, 23, 20, 12, 0, 0, 2, 0, 0, 9, 4, 1, 0, 0, 0, 0, 0, 7, 14, 21, 28, 2, 9, 16, 23, 30, 4, 11, 18, 25, 32, 6, 13, 20, 27, 1, 8, 15, 22, 29, 3, 10, 17, 24, 31, 5, 12, 19, 26, 0, 7, 14, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 2, 1, 0, 1, 0, 0, 2, 1, 0, 0, 11, 22, 0, 11, 22, 0, 11, 22, 0, 11, 22, 0, 11, 22, 0, 11, 22, 0, 11, 22, 0, 11, 5, 5, 5, 5, 5, 5, 5, 5, 5, 0, 5, 5, 1, 1, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 30})
	// FilterBank's old fused head, 5 rows of 5 taps from F[0] on: fuse's
	// prelude, one pop a row, stored at a cursor from 1 on, the window
	// wrapping the ring. No rows span takes it: the generic row loop runs.
	f.Add([]byte{0, 0, 20, 4, 20, 7, 3, 4, 2, 0, 5, 5, 0, 0, 1, 0, 0, 20, 12, 28, 8, 17, 1, 1, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 10, 17, 24, 31, 5, 12, 19, 26, 0, 7, 14, 21, 28, 2, 9, 16, 23, 30, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 28})
	// The same head with two pops a row, storing to la[2v+t] one cell past
	// la's end.
	f.Add([]byte{0, 0, 20, 4, 20, 7, 3, 4, 2, 0, 5, 5, 0, 0, 1, 0, 0, 20, 12, 28, 8, 17, 1, 1, 0, 1, 2, 0, 1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 10, 17, 24, 31, 5, 12, 19, 26, 0, 7, 14, 21, 28, 2, 9, 16, 23, 30, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 28})
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		kb := wfunc.NewKernel("fuzz", 0, 0, 0).Dynamic()
		vals := func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(pick(33)-16) / 4
			}
			return out
		}
		nfa, nfb, nin := pick(10)+1, pick(10)+1, pick(24)
		fa, fb := kb.FieldArray("fa", nfa, vals(nfa)...), kb.FieldArray("fb", nfb, vals(nfb)...)
		nl := []int{pick(10) + 1, pick(10) + 1}
		g := &spanGen{pick: pick, tapeRead: true, farrs: []int{fa, fb},
			larrs: []int{kb.LocalArray("la", nl[0]), kb.LocalArray("lb", nl[1])},
			v:     kb.Local("v"), acc: kb.Local("acc"), offs: []*wfunc.LocalRef{kb.Local("p"), kb.Local("q")},
			i: kb.Local("i"), llens: nl,
		}
		rowArrays := 0
		g.field = func(n int) int {
			rowArrays++
			return kb.FieldArray(fmt.Sprint("fm", rowArrays), n, vals(n)...)
		}
		body := []wfunc.Stmt{wfunc.Set(g.offs[0], wfunc.C(float64(pick(9)-2)/2)), wfunc.Set(g.offs[1], wfunc.C(float64(pick(4))))}
		for i := 0; i < 3; i++ {
			body = append(body, g.loop(), wfunc.Push1(g.acc), wfunc.Push1(g.v), wfunc.Push1(g.i))
		}
		for i, arr := range g.larrs {
			for j := 0; j < nl[i]; j++ {
				body = append(body, wfunc.Push1(wfunc.LIdx(arr, wfunc.Ci(j))))
			}
		}
		k := kb.WorkBody(body...).Build()
		items := vals(nin)
		for i := range items {
			switch pick(12) {
			case 0:
				items[i] = math.NaN()
			case 1:
				items[i] = math.Inf(1 - 2*pick(2))
			}
		}
		interp, vm := fireBoth(t, k, items, wrapAt(pick(32)))
		// Where two NaNs meet in an add, which one the sum carries is the
		// operand order Go's register allocator picks (row_test.go).
		quiet(interp.pushed)
		quiet(vm.pushed)
		sameOutcome(t, interp, vm)
	})
}

// wrapAt moves the input's items to ring positions from skew on, so that a
// window over them may wrap the ring's end.
func wrapAt(skew int) func(in, out wfunc.Tape) (wfunc.Tape, wfunc.Tape) {
	return func(in, out wfunc.Tape) (wfunc.Tape, wfunc.Tape) {
		ct := in.(*callTape)
		items := ct.Take(nil, ct.Len())
		ct.Ring = wfunc.NewRing(len(items))
		ct.Fill(int64(skew), items)
		return in, out
	}
}
