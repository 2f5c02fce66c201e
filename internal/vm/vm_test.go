package vm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streamit/internal/wfunc"
)

// matchesInterpreter fires k once on both backends over input (fireBoth,
// span_test.go) and requires a clean firing that left the same outputs,
// field state and tape behind.
func matchesInterpreter(t *testing.T, k *wfunc.Kernel, input []float64) {
	t.Helper()
	interp, vm := fireBoth(t, k, input, nil)
	if interp.err != "" {
		t.Fatalf("the interpreter faulted: %s", interp.err)
	}
	sameOutcome(t, interp, vm)
}

func TestFIRMatchesInterpreter(t *testing.T) {
	n := 16
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = math.Sin(float64(i) * 0.7)
	}
	kb := wfunc.NewKernel("fir", n, 1, 1)
	w := kb.FieldArray("w", n, weights...)
	i := kb.Local("i")
	sum := kb.Local("sum")
	kb.WorkBody(
		wfunc.Set(sum, wfunc.C(0)),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(n),
			wfunc.Set(sum, wfunc.AddX(sum, wfunc.MulX(wfunc.PeekX(i), wfunc.FIdx(w, i))))),
		wfunc.Pop1(),
		wfunc.Push1(sum),
	)
	k := kb.Build()
	input := make([]float64, n+4)
	for j := range input {
		input[j] = math.Cos(float64(j) * 1.3)
	}
	matchesInterpreter(t, k, input)
}

// TestSignedZeroConstants: -0 and +0 are distinct constants; a pool that
// interned them as one would push 0 + -0 = +0 where the interpreter
// pushes -0 + -0 = -0.
func TestSignedZeroConstants(t *testing.T) {
	kb := wfunc.NewKernel("zeros", 1, 1, 2)
	acc := kb.Local("acc")
	k := kb.WorkBody(
		wfunc.Push1(wfunc.AddX(wfunc.C(0), wfunc.PeekE(0))),
		wfunc.Set(acc, wfunc.C(math.Copysign(0, -1))),
		wfunc.Push1(wfunc.AddX(acc, wfunc.PopE())),
	).Build()
	matchesInterpreter(t, k, []float64{math.Copysign(0, -1)})
}

func TestControlFlowMatchesInterpreter(t *testing.T) {
	// Nested loops with break/continue, if/else, while, conditional
	// expressions, and short-circuit logic — the full structural surface.
	kb := wfunc.NewKernel("ctl", 4, 4, 3)
	acc := kb.Field("acc", 1)
	i := kb.Local("i")
	j := kb.Local("j")
	tmp := kb.Local("tmp")
	kb.WorkBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(4),
			wfunc.Set(tmp, wfunc.PopE()),
			wfunc.IfElse(wfunc.Bin(wfunc.Gt, tmp, wfunc.C(0)),
				[]wfunc.Stmt{wfunc.SetF(acc, wfunc.AddX(acc, tmp))},
				[]wfunc.Stmt{wfunc.SetF(acc, wfunc.SubX(acc, tmp))}),
			wfunc.ForUp(j, wfunc.Ci(0), wfunc.Ci(10),
				wfunc.IfS(wfunc.Bin(wfunc.Eq, j, wfunc.C(3)), &wfunc.Break{}),
				wfunc.IfS(wfunc.Bin(wfunc.And, wfunc.Bin(wfunc.Gt, j, wfunc.C(0)), wfunc.Bin(wfunc.Lt, tmp, wfunc.C(0))), &wfunc.Continue{}),
				wfunc.SetF(acc, wfunc.AddX(acc, wfunc.C(0.125))),
			),
		),
		wfunc.Set(j, wfunc.C(0)),
		&wfunc.While{
			C: wfunc.Bin(wfunc.Lt, j, wfunc.C(6)),
			Body: []wfunc.Stmt{
				wfunc.Set(j, wfunc.AddX(j, wfunc.C(1))),
				wfunc.IfS(wfunc.Bin(wfunc.Or, wfunc.Bin(wfunc.Eq, j, wfunc.C(5)), wfunc.Bin(wfunc.Gt, j, wfunc.C(7))), &wfunc.Break{}),
			},
		},
		wfunc.Push1(wfunc.Bin(wfunc.Mod, acc, wfunc.C(7))),
		wfunc.Push1(&wfunc.Cond{C: wfunc.Bin(wfunc.Ge, acc, wfunc.C(1)), A: j, B: wfunc.Un(wfunc.Neg, j)}),
		wfunc.Push1(acc),
	)
	k := kb.Build()
	matchesInterpreter(t, k, []float64{1.5, -2.25, 3, -0.5})
}

func TestShortCircuitSkipsTapeEffects(t *testing.T) {
	// The right operand of && must not be evaluated when the left is
	// false — here the right operand pops, so miscompiling short-circuit
	// logic would desynchronize the tape.
	kb := wfunc.NewKernel("sc", 2, 2, 1).Dynamic()
	v := kb.Local("v")
	kb.WorkBody(
		wfunc.Set(v, wfunc.Bin(wfunc.And, wfunc.PopE(), wfunc.PopE())),
		wfunc.Push1(v),
	)
	k := kb.Build()
	// First pop yields 0: second pop must be skipped by both backends.
	matchesInterpreter(t, k, []float64{0, 42})
}

func TestArrayIndexErrorMatches(t *testing.T) {
	kb := wfunc.NewKernel("oob", 1, 1, 1)
	a := kb.FieldArray("a", 4)
	kb.WorkBody(
		wfunc.Pop1(),
		wfunc.Push1(wfunc.FIdx(a, wfunc.C(9))),
	)
	k := kb.Build()
	interp, vm := fireBoth(t, k, []float64{1}, nil)
	if interp.err == "" {
		t.Fatal("expected an index error from the interpreter")
	}
	sameOutcome(t, interp, vm)
}

// TestEvaluationOrder holds the register form to the interpreter where it
// could reorder effects: a local is read in place rather than pushed, the
// outermost operation writes its target local directly, and temporaries
// are reused. Each row runs after x = 3, y = -2 and pushes x, y, z and the
// local array la afterwards; the outcome, faults included, must match bit
// for bit.
func TestEvaluationOrder(t *testing.T) {
	pop := wfunc.PopE
	c := wfunc.C
	fault := func(la int) wfunc.Expr { return wfunc.LIdx(la, c(9)) } // la has 4 cells
	zero := func(y *wfunc.LocalRef) wfunc.Expr { return wfunc.AddX(y, c(2)) }
	// deep is pop() - (pop() - (... - x)), each level's pop held in a
	// temporary while the rest is computed.
	var deep func(n int, x *wfunc.LocalRef) wfunc.Expr
	deep = func(n int, x *wfunc.LocalRef) wfunc.Expr {
		if n == 0 {
			return x
		}
		return wfunc.SubX(wfunc.MulX(pop(), c(float64(n))), deep(n-1, x))
	}
	const depth = 24 // the suite's kernels need at most 4 temporaries
	input := []float64{1.5, 2, 0, 7, -1, 3, 0.25, 5}
	for len(input) < depth {
		input = append(input, float64(len(input))/3)
	}
	cases := []struct {
		name  string
		body  func(x, y, z *wfunc.LocalRef, la int) []wfunc.Stmt
		input []float64
	}{
		{"x = pop() - x", func(x, _, _ *wfunc.LocalRef, _ int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Set(x, wfunc.SubX(pop(), x))}
		}, input},
		{"x = x * (x + pop())", func(x, _, _ *wfunc.LocalRef, _ int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Set(x, wfunc.MulX(x, wfunc.AddX(x, pop())))}
		}, input},
		{"x = x + pop() * x", func(x, _, _ *wfunc.LocalRef, _ int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Set(x, wfunc.AddX(x, wfunc.MulX(pop(), x)))}
		}, input},
		{"la[pop()] = pop()", func(_, _, _ *wfunc.LocalRef, la int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.SetLIdx(la, pop(), pop())}
		}, input},
		{"la[pop()] = pop(), index out of range", func(_, _, _ *wfunc.LocalRef, la int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.SetLIdx(la, pop(), pop())}
		}, []float64{5, 9, 1}},
		{"push(pop() - pop())", func(_, _, _ *wfunc.LocalRef, _ int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Push1(wfunc.SubX(pop(), pop()))}
		}, input},
		{"?: skips a pop", func(x, y, _ *wfunc.LocalRef, _ int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Set(x, &wfunc.Cond{C: x, A: y, B: pop()})}
		}, input},
		{"?: takes a pop", func(x, y, _ *wfunc.LocalRef, _ int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Set(x, &wfunc.Cond{C: zero(y), A: y, B: wfunc.SubX(pop(), x)})}
		}, input},
		{"?: skips a fault", func(x, y, _ *wfunc.LocalRef, la int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Set(y, &wfunc.Cond{C: x, A: pop(), B: fault(la)})}
		}, input},
		{"?: faults", func(x, y, _ *wfunc.LocalRef, la int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Set(y, &wfunc.Cond{C: zero(y), A: pop(), B: fault(la)})}
		}, input},
		{"&& skips a pop", func(x, y, _ *wfunc.LocalRef, _ int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Set(x, wfunc.Bin(wfunc.And, zero(y), pop()))}
		}, input},
		{"&& skips a fault", func(x, y, _ *wfunc.LocalRef, la int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Push1(wfunc.Bin(wfunc.And, zero(y), fault(la)))}
		}, input},
		{"&& takes a pop", func(x, _, _ *wfunc.LocalRef, _ int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Set(x, wfunc.Bin(wfunc.And, x, pop()))}
		}, input},
		{"|| skips a pop", func(x, _, _ *wfunc.LocalRef, _ int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Set(x, wfunc.Bin(wfunc.Or, x, pop()))}
		}, input},
		{"|| skips a fault", func(x, y, _ *wfunc.LocalRef, la int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Set(y, wfunc.Bin(wfunc.Or, x, fault(la)))}
		}, input},
		{"|| faults", func(_, y, _ *wfunc.LocalRef, la int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Set(y, wfunc.Bin(wfunc.Or, zero(y), fault(la)))}
		}, input},
		{"a send whose arguments pop", func(x, _, _ *wfunc.LocalRef, _ int) []wfunc.Stmt {
			send := &wfunc.Send{Portal: 1, Handler: "h", Args: []wfunc.Expr{pop(), wfunc.SubX(pop(), x), x, c(4)}, MinLatency: 1, MaxLatency: 2}
			return []wfunc.Stmt{send, wfunc.Set(x, pop()), send}
		}, input},
		{"a counted loop that assigns its own variable", func(_, _, z *wfunc.LocalRef, _ int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.ForUp(z, c(0), c(10), wfunc.Set(z, wfunc.AddX(z, c(2))), wfunc.Push1(z))}
		}, input},
		{"a counted loop whose body moves its bound", func(x, _, z *wfunc.LocalRef, _ int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.ForUp(z, x, c(7), wfunc.Set(x, wfunc.SubX(x, c(0.5))), wfunc.Push1(z)),
				&wfunc.For{Var: z.Idx, From: c(0), To: x, Body: []wfunc.Stmt{wfunc.Set(x, wfunc.SubX(x, c(0.5))), wfunc.Push1(z)}}}
		}, input},
		{"a counted loop whose step pops", func(_, _, z *wfunc.LocalRef, _ int) []wfunc.Stmt {
			return []wfunc.Stmt{&wfunc.For{Var: z.Idx, From: c(0), To: c(6), Step: wfunc.AddX(pop(), c(0.5)), Body: []wfunc.Stmt{wfunc.Push1(z)}}}
		}, input},
		{"a deep expression", func(x, _, _ *wfunc.LocalRef, _ int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Set(x, deep(depth, x)), wfunc.Push1(deep(2, x))}
		}, append(input, 1, 2)},
		{"a deep expression that runs dry", func(x, _, _ *wfunc.LocalRef, _ int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Set(x, deep(depth, x))}
		}, input[:depth-1]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kb := wfunc.NewKernel("order", 0, 0, 0).Dynamic()
			x, y, z := kb.Local("x"), kb.Local("y"), kb.Local("z")
			la := kb.LocalArray("la", 4)
			body := append([]wfunc.Stmt{wfunc.Set(x, c(3)), wfunc.Set(y, c(-2))}, tc.body(x, y, z, la)...)
			body = append(body, wfunc.Push1(x), wfunc.Push1(y), wfunc.Push1(z))
			for i := 0; i < 4; i++ {
				body = append(body, wfunc.Push1(wfunc.LIdx(la, wfunc.Ci(i))))
			}
			k := kb.WorkBody(body...).Build()
			interp, vm := fireBoth(t, k, tc.input, nil)
			sameOutcome(t, interp, vm)
		})
	}
	p, err := Compile(orderDeep(deep, depth))
	if err != nil {
		t.Fatal(err)
	}
	if temps := p.frame - p.numLocals; temps < depth {
		t.Errorf("the deep expression took %d temporaries, want at least %d", temps, depth)
	}
}

// orderDeep is a function whose one statement is deep(n, x).
func orderDeep(deep func(int, *wfunc.LocalRef) wfunc.Expr, n int) *wfunc.Func {
	kb := wfunc.NewKernel("deep", 0, 0, 0).Dynamic()
	x := kb.Local("x")
	return kb.WorkBody(wfunc.Push1(deep(n, x))).Build().Work
}

// TestSendWithoutMessengerFaultsFirst: the interpreter refuses a send with
// no messenger before it evaluates the arguments, so their pops never
// happen.
func TestSendWithoutMessengerFaultsFirst(t *testing.T) {
	kb := wfunc.NewKernel("tx", 0, 0, 0).Dynamic()
	kb.WorkBody(&wfunc.Send{Portal: 1, Handler: "h", Args: []wfunc.Expr{wfunc.PopE(), wfunc.PopE()}})
	k := kb.Build()
	p, err := Compile(k.Work)
	if err != nil {
		t.Fatal(err)
	}
	in := ringOf(1, 2)
	env := wfunc.NewEnv(k.Work)
	env.State, env.In = k.NewState(), in
	want := wfunc.Exec(k.Work, env)
	in2 := ringOf(1, 2)
	m := NewMachine(p)
	m.SetState(k.NewState())
	got := m.Run(in2, nil, nil, nil)
	if want == nil || got == nil || got.Error() != want.Error() || in.Len() != 2 || in2.Len() != 2 {
		t.Fatalf("interp %v with %d items left, vm %v with %d", want, in.Len(), got, in2.Len())
	}
}

// recorder captures teleport sends for comparison.
type recorder struct{ log []string }

func (r *recorder) Send(portal int, handler string, args []float64, minLat, maxLat int, bestEffort bool) error {
	r.log = append(r.log, fmt.Sprintf("%d/%s/%v/%d..%d/%v", portal, handler, args, minLat, maxLat, bestEffort))
	return nil
}

func TestSendsFireAtSamePoints(t *testing.T) {
	kb := wfunc.NewKernel("tx", 1, 1, 1)
	v := kb.Local("v")
	kb.WorkBody(
		wfunc.Set(v, wfunc.PopE()),
		wfunc.IfS(wfunc.Bin(wfunc.Gt, v, wfunc.C(0)),
			&wfunc.Send{Portal: 2, Handler: "setFreq", Args: []wfunc.Expr{v, wfunc.MulX(v, wfunc.C(2))}, MinLatency: 3, MaxLatency: 5}),
		wfunc.Push1(v),
	)
	k := kb.Build()

	run := func(useVM bool) []string {
		rec := &recorder{}
		in := ringOf(1.5, -2, 3)
		out := ringOf()
		st := k.NewState()
		if useVM {
			p, err := Compile(k.Work)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMachine(p)
			m.SetState(st)
			for f := 0; f < 3; f++ {
				if err := m.Run(in, out, rec, nil); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			env := wfunc.NewEnv(k.Work)
			env.State = st
			env.In, env.Out = in, out
			env.Msg = rec
			for f := 0; f < 3; f++ {
				env.Reset()
				if err := wfunc.Exec(k.Work, env); err != nil {
					t.Fatal(err)
				}
			}
		}
		return rec.log
	}
	iLog, vLog := run(false), run(true)
	if len(iLog) != len(vLog) {
		t.Fatalf("send counts differ: interp %d, vm %d", len(iLog), len(vLog))
	}
	for i := range iLog {
		if iLog[i] != vLog[i] {
			t.Fatalf("send %d differs:\n  interp: %s\n  vm:     %s", i, iLog[i], vLog[i])
		}
	}
}

func TestPrintMatchesAndNilHookDiscards(t *testing.T) {
	kb := wfunc.NewKernel("pr", 1, 1, 1)
	v := kb.Local("v")
	kb.WorkBody(
		wfunc.Set(v, wfunc.PopE()),
		&wfunc.Print{X: wfunc.MulX(v, wfunc.C(10))},
		wfunc.Push1(v),
	)
	k := kb.Build()
	p, err := Compile(k.Work)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	m := NewMachine(p)
	m.SetState(k.NewState())
	in := ringOf(4)
	out := ringOf()
	if err := m.Run(in, out, nil, func(x float64) { got = append(got, x) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 40 {
		t.Fatalf("print hook got %v, want [40]", got)
	}
	// nil hook: must not crash.
	in2 := ringOf(4)
	if err := m.Run(in2, ringOf(), nil, nil); err != nil {
		t.Fatal(err)
	}
}

// exprGen builds random statements and expressions from a stream of small
// choices, as spanGen does: pick(n) returns a number in [0, n). The
// expressions read constants, locals, fields, a field array, a local array
// and the window, pop, and index the window and the arrays at computed
// positions that may fault.
type exprGen struct {
	pick         func(n int) int
	locals       []*wfunc.LocalRef
	fields       []*wfunc.FieldRef
	farr, larr   int
	farrN, larrN int
	peekWin      int
}

func (g *exprGen) expr(depth int) wfunc.Expr {
	if depth <= 0 || g.pick(4) == 0 {
		switch g.pick(9) {
		case 0:
			return wfunc.C(float64(g.pick(21)-10) / 4)
		case 1, 2:
			return g.locals[g.pick(len(g.locals))]
		case 3:
			return g.fields[g.pick(len(g.fields))]
		case 4:
			return wfunc.FIdx(g.farr, wfunc.Ci(g.pick(g.farrN)))
		case 5:
			return wfunc.LIdx(g.larr, wfunc.Ci(g.pick(g.larrN)))
		case 6:
			return wfunc.PopE()
		case 7:
			if depth > 0 {
				// A computed index: in range or not, fractional, negative or
				// NaN.
				switch x := g.expr(depth - 1); g.pick(3) {
				case 0:
					return wfunc.PeekX(x)
				case 1:
					return wfunc.FIdx(g.farr, x)
				default:
					return wfunc.LIdx(g.larr, x)
				}
			}
		}
		return wfunc.PeekE(g.pick(g.peekWin))
	}
	switch g.pick(3) {
	case 0:
		ops := []wfunc.UnOp{wfunc.Neg, wfunc.Not, wfunc.BitNot, wfunc.Trunc, wfunc.Abs, wfunc.Sin, wfunc.Cos, wfunc.Exp, wfunc.Sqrt, wfunc.Floor, wfunc.Ceil, wfunc.Round, wfunc.Atan}
		return wfunc.Un(ops[g.pick(len(ops))], g.expr(depth-1))
	case 1:
		ops := []wfunc.BinOp{wfunc.Add, wfunc.Sub, wfunc.Mul, wfunc.Div, wfunc.Mod, wfunc.Pow, wfunc.Atan2, wfunc.Min, wfunc.Max,
			wfunc.And, wfunc.Or, wfunc.BitAnd, wfunc.BitOr, wfunc.BitXor, wfunc.Shl, wfunc.Shr,
			wfunc.Eq, wfunc.Ne, wfunc.Lt, wfunc.Le, wfunc.Gt, wfunc.Ge}
		return wfunc.Bin(ops[g.pick(len(ops))], g.expr(depth-1), g.expr(depth-1))
	default:
		return &wfunc.Cond{C: g.expr(depth - 1), A: g.expr(depth - 1), B: g.expr(depth - 1)}
	}
}

// stmt is an assignment to a local (now and then one whose right side
// reads it, as x = x op E or an accumulation x = x + E*F), a field, a
// field-array or local-array cell, or an if over two of them.
func (g *exprGen) stmt() wfunc.Stmt {
	e := g.expr(3)
	switch g.pick(6) {
	case 0:
		l := g.locals[g.pick(len(g.locals))]
		switch g.pick(3) {
		case 0:
			e = wfunc.Bin([]wfunc.BinOp{wfunc.Add, wfunc.Sub, wfunc.Mul, wfunc.Max}[g.pick(4)], l, e)
		case 1:
			e = wfunc.AddX(l, wfunc.MulX(e, g.expr(1)))
		default:
			e = wfunc.SubX(e, l)
		}
		return wfunc.Set(l, e)
	case 1:
		return wfunc.Set(g.locals[g.pick(len(g.locals))], e)
	case 2:
		return wfunc.SetF(g.fields[g.pick(len(g.fields))], e)
	case 3:
		return wfunc.SetFIdx(g.farr, g.index(g.farrN), e)
	case 4:
		return wfunc.SetLIdx(g.larr, g.index(g.larrN), e)
	default:
		return wfunc.IfElse(g.expr(2),
			[]wfunc.Stmt{wfunc.Set(g.locals[0], e)},
			[]wfunc.Stmt{wfunc.Set(g.locals[1], e)})
	}
}

// index is a store's index: mostly a constant in range, now and then a
// computed one.
func (g *exprGen) index(n int) wfunc.Expr {
	if g.pick(4) == 0 {
		return g.expr(2)
	}
	return wfunc.Ci(g.pick(n))
}

// FuzzGenericKernel decodes bytes into a kernel of generated statements —
// the generic path: register code over locals, temporaries and constants —
// followed by loops in and around the span family (span_test.go) whose
// bounds and offsets, the statements' results among them, may overrun
// window and arrays, and holds the VM to the interpreter's outcome, faults
// included. The seed corpus is 300 seeded random strings.
func FuzzGenericKernel(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		seed := make([]byte, 192)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		const peekWin = 6
		kb := wfunc.NewKernel("gen", peekWin, 2, 3).Dynamic()
		g := &exprGen{pick: pick, peekWin: peekWin, farrN: 5, larrN: 7,
			farr:   kb.FieldArray("fa", 5, 0.5, -1.25, 2, 0.75, -3),
			larr:   kb.LocalArray("la", 7),
			fields: []*wfunc.FieldRef{kb.Field("f0", 1.5), kb.Field("f1", -0.5)},
			locals: []*wfunc.LocalRef{kb.Local("l0"), kb.Local("l1"), kb.Local("l2")},
		}
		i := kb.Local("i")
		gen := &spanGen{pick: pick, tapeRead: true, v: i, acc: g.locals[2], offs: g.locals[:2],
			farrs: []int{g.farr, kb.FieldArray("fb", 9, 3, 1, -4, 1, 5, -9, 2, 6)},
			larrs: []int{g.larr}}
		var body []wfunc.Stmt
		for s := pick(4) + 1; s > 0; s-- {
			body = append(body, g.stmt())
		}
		// A loop accumulating over the peek window, two generated ones, then
		// the static rate: pop 2, push 3, and the local array.
		body = append(body,
			wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(peekWin),
				wfunc.Set(g.locals[2], wfunc.AddX(g.locals[2], wfunc.PeekX(i)))),
			gen.loop(), wfunc.Push1(i), gen.loop(), wfunc.Push1(i),
			wfunc.Pop1(), wfunc.Pop1(),
			wfunc.Push1(g.locals[0]), wfunc.Push1(g.locals[1]), wfunc.Push1(g.locals[2]),
		)
		for j := 0; j < g.larrN; j++ {
			body = append(body, wfunc.Push1(wfunc.LIdx(g.larr, wfunc.Ci(j))))
		}
		k := kb.WorkBody(body...).Build()
		input := make([]float64, peekWin+8)
		for j := range input {
			input[j] = float64(pick(17)-8) / 2
		}
		interp, vm := fireBoth(t, k, input, nil)
		sameOutcome(t, interp, vm)
	})
}

// TestFoldThenCompile makes sure the compiler accepts folded kernels (the
// pipeline the engines actually run: build → Fold → compile).
func TestFoldThenCompile(t *testing.T) {
	kb := wfunc.NewKernel("folded", 1, 1, 1)
	v := kb.Local("v")
	kb.WorkBody(
		wfunc.Set(v, wfunc.MulX(wfunc.PopE(), wfunc.AddX(wfunc.C(2), wfunc.C(3)))),
		wfunc.IfS(wfunc.C(1), wfunc.Push1(v)),
	)
	k := kb.Build()
	wfunc.FoldKernel(k)
	p, err := Compile(k.Work)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p)
	m.SetState(k.NewState())
	out := ringOf()
	if err := m.Run(ringOf(2), out, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := out.Take(nil, out.Len()); len(got) != 1 || got[0] != 10 {
		t.Fatalf("got %v, want [10]", got)
	}
}

// ringOf returns a ring holding items.
func ringOf(items ...float64) *wfunc.Ring {
	r := wfunc.NewRing(len(items))
	r.Append(items)
	return r
}
