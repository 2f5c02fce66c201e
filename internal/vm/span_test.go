package vm

import (
	"fmt"
	"math"
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
}

// fireBoth fires k's work function once on each backend over input; tapes,
// when set, stands between the tapes and the firing.
func fireBoth(t *testing.T, k *wfunc.Kernel, input []float64, tapes func(in, out wfunc.Tape) (wfunc.Tape, wfunc.Tape)) (interp, vm outcome) {
	t.Helper()
	p, err := Compile(k.Work)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	fire := func(run func(in, out wfunc.Tape, st *wfunc.State) error) (o outcome) {
		in, out := &callTape{Ring: ringOf(input...)}, &callTape{Ring: wfunc.NewRing(0)}
		o.state = k.NewState()
		defer func() {
			if r := recover(); r != nil {
				o.err = fmt.Sprintf("panic: %v", r)
			}
			o.left, o.calls, o.pushes = in.Len(), in.calls, out.calls
			o.pushed = out.Take(nil, out.Len())
		}()
		var tin, tout wfunc.Tape = in, out
		if tapes != nil {
			tin, tout = tapes(tin, tout)
		}
		if err := run(tin, tout, o.state); err != nil {
			o.err = err.Error()
		}
		return o
	}
	interp = fire(func(in, out wfunc.Tape, st *wfunc.State) error {
		env := wfunc.NewEnv(k.Work)
		env.State, env.In, env.Out = st, in, out
		return wfunc.Exec(k.Work, env)
	})
	vm = fire(func(in, out wfunc.Tape, st *wfunc.State) error {
		m := NewMachine(p)
		m.SetState(st)
		return m.Run(in, out, nil, nil)
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
// accumulator, the loop variable and both local arrays pushed after it, so
// that every local the loop can change is observable.
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
	body = append(body, loop(f), wfunc.Push1(f.acc), wfunc.Push1(f.v))
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

type spanCase struct {
	name                        string
	loop                        func(f *spanFixture) wfunc.Stmt
	reduce, drain, move, mapped int
}

// fixturePushes is how many items spanKernel pushes after its loop.
const fixturePushes = 2 + 2*fixL

// familyCases has one loop per family member and operand kind. With the
// fixture's full input every guard holds.
var familyCases = []spanCase{
	{"reduce peek*field", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.MulX(wfunc.PeekX(f.v), wfunc.FIdx(f.fa, f.v))))
	}, 1, 0, 0, 0},
	{"reduce field*peek offset", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.MulX(wfunc.FIdx(f.fa, f.v), wfunc.PeekX(wfunc.AddX(f.v, wfunc.C(3))))))
	}, 1, 0, 0, 0},
	{"reduce peek*peek", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.MulX(wfunc.PeekX(f.v), wfunc.PeekX(wfunc.AddX(wfunc.C(2), f.v)))))
	}, 1, 0, 0, 0},
	{"reduce pop*field", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.MulX(wfunc.PopE(), wfunc.FIdx(f.fa, f.v))))
	}, 1, 0, 0, 0},
	{"reduce local*pop", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.MulX(wfunc.LIdx(f.la, f.v), wfunc.PopE())))
	}, 1, 0, 0, 0},
	{"reduce local*field, run-time offsets", func(f *spanFixture) wfunc.Stmt {
		// MatMul's shape: la[v+p] * fb[q*2+v].
		return f.upTo(8, f.accum(wfunc.MulX(
			wfunc.LIdx(f.la, wfunc.AddX(f.v, f.p)),
			wfunc.FIdx(f.fb, wfunc.AddX(wfunc.MulX(f.q, wfunc.C(2)), f.v)))))
	}, 1, 0, 0, 0},
	{"reduce field*field, v-P", func(f *spanFixture) wfunc.Stmt {
		return &wfunc.For{Var: f.v.Idx, From: wfunc.AddX(f.p, f.q), To: wfunc.C(8), Step: wfunc.C(1), Body: []wfunc.Stmt{
			f.accum(wfunc.MulX(wfunc.FIdx(f.fa, wfunc.SubX(f.v, f.q)), wfunc.FIdx(f.fb, wfunc.SubX(f.v, wfunc.C(3)))))}}
	}, 1, 0, 0, 0},
	{"sum peek", func(f *spanFixture) wfunc.Stmt { return f.upTo(8, f.accum(wfunc.PeekX(f.v))) }, 1, 0, 0, 0},
	{"sum pop", func(f *spanFixture) wfunc.Stmt { return f.upTo(6, f.accum(wfunc.PopE())) }, 1, 0, 0, 0},
	{"sum field", func(f *spanFixture) wfunc.Stmt { return f.upTo(8, f.accum(wfunc.FIdx(f.fa, f.v))) }, 1, 0, 0, 0},
	{"sum local, fractional bound", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(7.5, f.accum(wfunc.LIdx(f.lb, wfunc.AddX(f.v, f.q))))
	}, 1, 0, 0, 0},
	{"drain", func(f *spanFixture) wfunc.Stmt { return f.upTo(17, wfunc.Pop1()) }, 0, 1, 0, 0},
	{"move field<-field", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetFIdx(f.fb, wfunc.AddX(f.v, f.q), wfunc.FIdx(f.fa, f.v)))
	}, 0, 0, 1, 0},
	{"move local<-field", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetLIdx(f.la, wfunc.AddX(f.v, wfunc.C(1)), wfunc.FIdx(f.fa, f.v)))
	}, 0, 0, 1, 0},
	{"move field<-local", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetFIdx(f.fa, f.v, wfunc.LIdx(f.lb, wfunc.AddX(f.p, f.v))))
	}, 0, 0, 1, 0},
	{"move local<-local", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(10, wfunc.SetLIdx(f.la, f.v, wfunc.LIdx(f.lb, f.v)))
	}, 0, 0, 1, 0},
	{"move down one array", func(f *spanFixture) wfunc.Stmt {
		// StatefulFIR's shift: h[i] = h[i+1].
		return f.upTo(7, wfunc.SetFIdx(f.fa, f.v, wfunc.FIdx(f.fa, wfunc.AddX(f.v, wfunc.C(1)))))
	}, 0, 0, 1, 0},
	{"nested: outer variable in the offset", func(f *spanFixture) wfunc.Stmt {
		return &wfunc.For{Var: f.q.Idx, From: wfunc.C(0), To: wfunc.C(3), Body: []wfunc.Stmt{
			f.upTo(4, f.accum(wfunc.MulX(wfunc.PeekX(f.v), wfunc.FIdx(f.fb, wfunc.AddX(wfunc.MulX(f.q, wfunc.C(4)), f.v)))))}}
	}, 1, 0, 0, 0},
	{"map permutation (DES's E-box)", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(20, wfunc.Push1(wfunc.PeekX(wfunc.Bin(wfunc.Mod, wfunc.MulX(f.v, wfunc.C(5)), wfunc.C(24)))))
	}, 0, 0, 0, 1},
	{"map xor of two peeks", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(12, wfunc.Push1(wfunc.Bin(wfunc.BitXor, wfunc.PeekX(f.v), wfunc.PeekX(wfunc.AddX(f.v, wfunc.C(12))))))
	}, 0, 0, 0, 1},
	{"map table lookup, two pushes a trip", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.Push1(wfunc.FIdx(f.fa, wfunc.Bin(wfunc.Mod, wfunc.MulX(f.v, wfunc.C(3)), wfunc.C(8)))),
			wfunc.Push1(wfunc.LIdx(f.lb, wfunc.SubX(wfunc.C(9), f.v))))
	}, 0, 0, 0, 1},
	{"map body local reassigned (Serpent's S-box)", func(f *spanFixture) wfunc.Stmt {
		// acc is pushed after the loop: its last trip's value must be left.
		nibble := wfunc.Bin(wfunc.Mod, wfunc.Un(wfunc.Abs, wfunc.Un(wfunc.Trunc,
			wfunc.AddX(wfunc.MulX(wfunc.PeekX(wfunc.MulX(f.v, wfunc.C(2))), wfunc.C(2)), wfunc.PeekX(wfunc.AddX(wfunc.MulX(f.v, wfunc.C(2)), wfunc.C(1)))))), wfunc.C(12))
		return f.upTo(12, wfunc.Set(f.acc, nibble), wfunc.Set(f.acc, wfunc.FIdx(f.fb, f.acc)),
			wfunc.Push1(wfunc.Bin(wfunc.Mod, wfunc.DivX(f.acc, wfunc.C(8)), wfunc.C(2))),
			wfunc.Push1(wfunc.Bin(wfunc.Mod, f.acc, wfunc.C(2))))
	}, 0, 0, 0, 1},
	{"map invariant field and local (MPEG-2's predictor)", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(16, wfunc.Set(f.acc, wfunc.AddX(wfunc.PeekX(f.v), f.fs)), wfunc.Push1(wfunc.MulX(f.acc, f.q)))
	}, 0, 0, 0, 1},
	{"map ?: && || min max", func(f *spanFixture) wfunc.Stmt {
		x := wfunc.PeekX(f.v)
		return f.upTo(24,
			wfunc.Push1(&wfunc.Cond{C: wfunc.Bin(wfunc.Gt, x, wfunc.C(0)), A: wfunc.Bin(wfunc.Min, x, f.fs), B: wfunc.Bin(wfunc.Max, f.p, x)}),
			wfunc.Push1(wfunc.Bin(wfunc.Or, wfunc.Bin(wfunc.And, wfunc.Bin(wfunc.Gt, x, wfunc.C(1)), wfunc.Bin(wfunc.Lt, f.v, wfunc.C(9))),
				wfunc.Bin(wfunc.Eq, f.v, wfunc.C(20)))))
	}, 0, 0, 0, 1},
	{"map trigonometry, division, shifts, modulo by zero", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(10, wfunc.Push1(wfunc.AddX(wfunc.Un(wfunc.Sin, wfunc.PeekX(f.v)), wfunc.DivX(wfunc.C(1), f.v))),
			wfunc.Push1(wfunc.Bin(wfunc.Shl, f.v, f.q)), wfunc.Push1(wfunc.Bin(wfunc.Mod, f.v, wfunc.SubX(f.p, wfunc.C(1)))),
			wfunc.Push1(wfunc.Un(wfunc.Neg, wfunc.SubX(f.v, wfunc.C(0.25)))))
	}, 0, 0, 0, 1},
	{"map from a run-time start to a fractional bound", func(f *spanFixture) wfunc.Stmt {
		return &wfunc.For{Var: f.v.Idx, From: wfunc.AddX(f.p, f.q), To: wfunc.C(9.5), Body: []wfunc.Stmt{
			wfunc.Push1(wfunc.SubX(wfunc.LIdx(f.la, f.v), f.q))}}
	}, 0, 0, 0, 1},
	{"map copies a constant into a body local", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(5, wfunc.Set(f.acc, wfunc.C(3)), wfunc.Push1(wfunc.AddX(f.acc, f.v)), wfunc.Set(f.acc, f.p))
	}, 0, 0, 0, 1},
	{"map past one block of lanes", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(40, wfunc.Push1(wfunc.MulX(wfunc.PeekX(wfunc.Bin(wfunc.Mod, f.v, wfunc.C(24))), f.v)))
	}, 0, 0, 0, 1},
}

// nearMisses look like family members and must compile to generic loops
// only.
var nearMisses = []spanCase{
	{"step 2", func(f *spanFixture) wfunc.Stmt {
		return &wfunc.For{Var: f.v.Idx, From: wfunc.C(0), To: wfunc.C(8), Step: wfunc.C(2), Body: []wfunc.Stmt{f.accum(wfunc.PeekX(f.v))}}
	}, 0, 0, 0, 0},
	{"variable bound", func(f *spanFixture) wfunc.Stmt {
		return &wfunc.For{Var: f.v.Idx, From: wfunc.C(0), To: wfunc.MulX(f.q, wfunc.C(4)), Body: []wfunc.Stmt{f.accum(wfunc.PeekX(f.v))}}
	}, 0, 0, 0, 0},
	{"two statements", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.PeekX(f.v)), wfunc.Pop1())
	}, 0, 0, 0, 0},
	{"accumulator in an offset", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.FIdx(f.fb, wfunc.AddX(f.v, wfunc.MulX(f.acc, wfunc.C(0))))))
	}, 0, 0, 0, 0},
	{"loop variable in an offset", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(4, f.accum(wfunc.PeekX(wfunc.AddX(f.v, f.v))))
	}, 0, 0, 0, 0},
	{"loop variable as accumulator", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.Set(f.v, wfunc.AddX(f.v, wfunc.LIdx(f.lb, f.v))))
	}, 0, 0, 0, 0},
	{"move up one array smears", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(7, wfunc.SetFIdx(f.fa, wfunc.AddX(f.v, wfunc.C(1)), wfunc.FIdx(f.fa, f.v)))
	}, 0, 0, 0, 0},
	{"move within one array, run-time offset", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(7, wfunc.SetFIdx(f.fa, wfunc.AddX(f.v, f.p), wfunc.FIdx(f.fa, f.v)))
	}, 0, 0, 0, 0},
	{"peek in an offset", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(4, f.accum(wfunc.FIdx(f.fb, wfunc.AddX(f.v, wfunc.Un(wfunc.Abs, wfunc.Un(wfunc.Trunc, wfunc.PeekE(0)))))))
	}, 0, 0, 0, 0},
	{"array load in an offset", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(4, f.accum(wfunc.FIdx(f.fb, wfunc.AddX(f.v, wfunc.LIdx(f.la, wfunc.C(2))))))
	}, 0, 0, 0, 0},
	{"field in an offset", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(4, f.accum(wfunc.FIdx(f.fb, wfunc.AddX(f.v, f.fs))))
	}, 0, 0, 0, 0},
	{"addends swapped", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.Set(f.acc, wfunc.AddX(wfunc.PeekX(f.v), f.acc)))
	}, 0, 0, 0, 0},
	{"pop beside peek", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.MulX(wfunc.PopE(), wfunc.PeekX(f.v))))
	}, 0, 0, 0, 0},
	{"two pops", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.MulX(wfunc.PopE(), wfunc.PopE())))
	}, 0, 0, 0, 0},
	{"descending index", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.FIdx(f.fa, wfunc.SubX(wfunc.C(7), f.v))))
	}, 0, 0, 0, 0},
	{"strided index", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(4, f.accum(wfunc.PeekX(wfunc.MulX(f.v, wfunc.C(2)))))
	}, 0, 0, 0, 0},
	{"field accumulator", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetF(f.fs, wfunc.AddX(f.fs, wfunc.PeekX(f.v))))
	}, 0, 0, 0, 0},
	{"operand under a unary", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, f.accum(wfunc.Un(wfunc.Abs, wfunc.PeekX(f.v))))
	}, 0, 0, 0, 0},
	{"move from the tape", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetLIdx(f.la, f.v, wfunc.PeekX(f.v)))
	}, 0, 0, 0, 0},
	{"map: body local read before the trip assigns it", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.Push1(f.acc), wfunc.Set(f.acc, wfunc.PeekX(f.v)))
	}, 0, 0, 0, 0},
	{"map: a pop", func(f *spanFixture) wfunc.Stmt { return f.upTo(8, wfunc.Push1(wfunc.PopE())) }, 0, 0, 0, 0},
	{"map: an array store", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetLIdx(f.la, f.v, wfunc.PeekX(f.v)), wfunc.Push1(f.v))
	}, 0, 0, 0, 0},
	{"map: a field store", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.SetF(f.fs, wfunc.PeekX(f.v)), wfunc.Push1(f.fs))
	}, 0, 0, 0, 0},
	{"map: the loop variable assigned", func(f *spanFixture) wfunc.Stmt {
		return f.upTo(8, wfunc.Push1(f.v), wfunc.Set(f.v, wfunc.AddX(f.v, wfunc.C(1))))
	}, 0, 0, 0, 0},
	{"map: no push", func(f *spanFixture) wfunc.Stmt { return f.upTo(8, wfunc.Set(f.acc, wfunc.PeekX(f.v))) }, 0, 0, 0, 0},
	{"map: more registers than the cap", func(f *spanFixture) wfunc.Stmt {
		var e wfunc.Expr = f.v
		for i := 1; i <= mapRegs; i++ {
			e = wfunc.AddX(e, wfunc.C(float64(i)))
		}
		return f.upTo(8, wfunc.Push1(e))
	}, 0, 0, 0, 0},
}

func TestSpanFamily(t *testing.T) {
	for _, tc := range append(append([]spanCase(nil), familyCases...), nearMisses...) {
		t.Run(tc.name, func(t *testing.T) {
			k := spanKernel("span", tc.loop)
			p, err := Compile(k.Work)
			if err != nil {
				t.Fatal(err)
			}
			if r, d, m, mp := p.SpanCounts(); r != tc.reduce || d != tc.drain || m != tc.move || mp != tc.mapped {
				t.Fatalf("span instructions reduce/drain/move/map = %d/%d/%d/%d, want %d/%d/%d/%d",
					r, d, m, mp, tc.reduce, tc.drain, tc.move, tc.mapped)
			}
			interp, vm := fireBoth(t, k, ramp(fixInput), nil)
			if interp.err != "" {
				t.Fatalf("the interpreter faulted: %s", interp.err)
			}
			sameOutcome(t, interp, vm)
			switch matched := tc.reduce+tc.drain+tc.move+tc.mapped > 0; {
			case matched && vm.calls != 0:
				t.Errorf("vm made %d per-item tape calls: the span's guard failed", vm.calls)
			case tc.mapped > 0 && vm.pushes != fixturePushes:
				t.Errorf("vm made %d per-item pushes, the fixture's %d: the map span's guard failed", vm.pushes, fixturePushes)
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
		if r, d, m, mp := p.SpanCounts(); r+d+m+mp != 0 {
			t.Errorf("bound %v: span instructions reduce/drain/move/map = %d/%d/%d/%d, want none", bound, r, d, m, mp)
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
			if r, d, m, mp := p.SpanCounts(); r+d+m+mp != 1 {
				t.Fatalf("the loop is not in the family (reduce/drain/move/map = %d/%d/%d/%d): the case tests nothing", r, d, m, mp)
			}
			interp, vm := fireBoth(t, k, ramp(tc.input), tc.tapes)
			if tc.fault != "?" && (tc.fault == "" && interp.err != "" || tc.fault != "" && !strings.Contains(interp.err, tc.fault)) {
				t.Fatalf("interpreter fault %q, want one containing %q", interp.err, tc.fault)
			}
			sameOutcome(t, interp, vm)
			switch {
			case tc.native && (vm.calls != 0 || vm.pushes != fixturePushes):
				t.Errorf("vm made %d per-item reads and %d pushes: the span did not run", vm.calls, vm.pushes)
			case !tc.native && (vm.calls != interp.calls || vm.pushes != interp.pushes):
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
	tapeRead bool              // operands may peek and pop
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

// mapBody is a body in and around the map family: one to four pushes,
// assignments to acc between them — now and then read before the trip
// assigns it, which keeps the loop generic — over pure expressions.
func (g *spanGen) mapBody() []wfunc.Stmt {
	var body []wfunc.Stmt
	set := g.pick(4) == 0 // acc is readable: a loop-carried read when not yet assigned
	for n := g.pick(4) + 1; n > 0; n-- {
		if g.pick(2) == 0 {
			body = append(body, wfunc.Set(g.acc, g.pure(3, set)))
			set = true
		}
		body = append(body, wfunc.Push1(g.pure(3, set)))
	}
	return body
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
// arrays and a window of fuzzed lengths, and holds the VM to the
// interpreter's outcome, faults included.
func FuzzSpanKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 5, 12, 1, 0, 8, 3, 3, 0, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 3, 4, 0, 16, 0, 0, 1, 1, 1, 4, 4, 4, 2, 2, 2, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{9, 9, 20, 2, 2, 19, 2, 0, 0, 0, 1, 0, 0, 2, 19, 2, 1, 1, 1, 1, 3, 18, 4, 4})
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
		g := &spanGen{pick: pick, tapeRead: true,
			farrs: []int{kb.FieldArray("fa", nfa, vals(nfa)...), kb.FieldArray("fb", nfb, vals(nfb)...)},
			larrs: []int{kb.LocalArray("la", pick(10)+1), kb.LocalArray("lb", pick(10)+1)},
			v:     kb.Local("v"), acc: kb.Local("acc"), offs: []*wfunc.LocalRef{kb.Local("p"), kb.Local("q")},
		}
		body := []wfunc.Stmt{wfunc.Set(g.offs[0], wfunc.C(float64(pick(9)-2)/2)), wfunc.Set(g.offs[1], wfunc.C(float64(pick(4))))}
		for i := 0; i < 3; i++ {
			body = append(body, g.loop(), wfunc.Push1(g.acc), wfunc.Push1(g.v))
		}
		for _, arr := range g.larrs {
			body = append(body, wfunc.Push1(wfunc.LIdx(arr, wfunc.C(0))))
		}
		k := kb.WorkBody(body...).Build()
		interp, vm := fireBoth(t, k, vals(nin), nil)
		sameOutcome(t, interp, vm)
	})
}
