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
		in := wfunc.NewSliceTape(1.5, -2, 3)
		out := wfunc.NewSliceTape()
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
	in := wfunc.NewSliceTape(4)
	out := wfunc.NewSliceTape()
	if err := m.Run(in, out, nil, func(x float64) { got = append(got, x) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 40 {
		t.Fatalf("print hook got %v, want [40]", got)
	}
	// nil hook: must not crash.
	in2 := wfunc.NewSliceTape(4)
	if err := m.Run(in2, wfunc.NewSliceTape(), nil, nil); err != nil {
		t.Fatal(err)
	}
}

// randExpr builds a random expression tree of bounded depth over the
// kernel's declared locals, fields, and peek window.
func randExpr(rng *rand.Rand, depth int, locals []*wfunc.LocalRef, fields []*wfunc.FieldRef, farr int, farrSize, peekWin int) wfunc.Expr {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(5) {
		case 0:
			return wfunc.C(float64(rng.Intn(21)-10) / 4)
		case 1:
			return locals[rng.Intn(len(locals))]
		case 2:
			return fields[rng.Intn(len(fields))]
		case 3:
			return wfunc.FIdx(farr, wfunc.Ci(rng.Intn(farrSize)))
		default:
			return wfunc.PeekE(rng.Intn(peekWin))
		}
	}
	switch rng.Intn(3) {
	case 0:
		ops := []wfunc.UnOp{wfunc.Neg, wfunc.Not, wfunc.BitNot, wfunc.Trunc, wfunc.Abs, wfunc.Sin, wfunc.Cos, wfunc.Exp, wfunc.Sqrt, wfunc.Floor, wfunc.Ceil, wfunc.Round, wfunc.Atan}
		return wfunc.Un(ops[rng.Intn(len(ops))], randExpr(rng, depth-1, locals, fields, farr, farrSize, peekWin))
	case 1:
		ops := []wfunc.BinOp{wfunc.Add, wfunc.Sub, wfunc.Mul, wfunc.Div, wfunc.Mod, wfunc.Pow, wfunc.Atan2, wfunc.Min, wfunc.Max,
			wfunc.And, wfunc.Or, wfunc.BitAnd, wfunc.BitOr, wfunc.BitXor, wfunc.Shl, wfunc.Shr,
			wfunc.Eq, wfunc.Ne, wfunc.Lt, wfunc.Le, wfunc.Gt, wfunc.Ge}
		return wfunc.Bin(ops[rng.Intn(len(ops))],
			randExpr(rng, depth-1, locals, fields, farr, farrSize, peekWin),
			randExpr(rng, depth-1, locals, fields, farr, farrSize, peekWin))
	default:
		return &wfunc.Cond{
			C: randExpr(rng, depth-1, locals, fields, farr, farrSize, peekWin),
			A: randExpr(rng, depth-1, locals, fields, farr, farrSize, peekWin),
			B: randExpr(rng, depth-1, locals, fields, farr, farrSize, peekWin),
		}
	}
}

// TestRandomizedEquivalence compiles hundreds of random kernels and
// checks bit-identical behaviour (faults, outputs, state, consumption)
// between the interpreter and the VM. Each kernel ends in loops in and
// around the span family (span_test.go) whose bounds and offsets — the
// random statements' results among them — may overrun window and arrays.
func TestRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const peekWin, farrSize = 6, 5
	for trial := 0; trial < 300; trial++ {
		kb := wfunc.NewKernel(fmt.Sprintf("rand%d", trial), peekWin, 2, 3).Dynamic()
		fa := kb.FieldArray("fa", farrSize, 0.5, -1.25, 2, 0.75, -3)
		fields := []*wfunc.FieldRef{kb.Field("f0", 1.5), kb.Field("f1", -0.5)}
		locals := []*wfunc.LocalRef{kb.Local("l0"), kb.Local("l1"), kb.Local("l2")}
		i := kb.Local("i")
		gen := &spanGen{pick: rng.Intn, tapeRead: true, v: i, acc: locals[2], offs: locals[:2],
			farrs: []int{fa, kb.FieldArray("fb", 9, 3, 1, -4, 1, 5, -9, 2, 6)},
			larrs: []int{kb.LocalArray("la", 7)}}

		var body []wfunc.Stmt
		nstmt := rng.Intn(4) + 1
		for s := 0; s < nstmt; s++ {
			e := randExpr(rng, 3, locals, fields, fa, farrSize, peekWin)
			switch rng.Intn(4) {
			case 0:
				body = append(body, wfunc.Set(locals[rng.Intn(len(locals))], e))
			case 1:
				body = append(body, wfunc.SetF(fields[rng.Intn(len(fields))], e))
			case 2:
				body = append(body, wfunc.SetFIdx(fa, wfunc.Ci(rng.Intn(farrSize)), e))
			default:
				body = append(body, wfunc.IfElse(
					randExpr(rng, 2, locals, fields, fa, farrSize, peekWin),
					[]wfunc.Stmt{wfunc.Set(locals[0], e)},
					[]wfunc.Stmt{wfunc.Set(locals[1], e)}))
			}
		}
		// A loop accumulating over the peek window, two generated ones, then
		// the static rate: pop 2, push 3.
		body = append(body,
			wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(peekWin),
				wfunc.Set(locals[2], wfunc.AddX(locals[2], wfunc.PeekX(i)))),
			gen.loop(), wfunc.Push1(i), gen.loop(), wfunc.Push1(i),
			wfunc.Pop1(), wfunc.Pop1(),
			wfunc.Push1(locals[0]), wfunc.Push1(locals[1]), wfunc.Push1(locals[2]),
		)
		kb.WorkBody(body...)
		k := kb.Build()

		input := make([]float64, peekWin+8)
		for j := range input {
			input[j] = float64(rng.Intn(17)-8) / 2
		}
		interp, vm := fireBoth(t, k, input, nil)
		sameOutcome(t, interp, vm)
		if t.Failed() {
			t.Fatalf("trial %d", trial)
		}
	}
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
	out := wfunc.NewSliceTape()
	if err := m.Run(wfunc.NewSliceTape(2), out, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := out.Items(); len(got) != 1 || got[0] != 10 {
		t.Fatalf("got %v, want [10]", got)
	}
}
