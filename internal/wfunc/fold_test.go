package wfunc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFoldConstants(t *testing.T) {
	e := FoldExpr(AddX(MulX(C(3), C(4)), C(5)))
	c, ok := e.(*Const)
	if !ok || c.V != 17 {
		t.Fatalf("3*4+5 folded to %#v", e)
	}
}

func TestFoldIdentities(t *testing.T) {
	x := &LocalRef{Idx: 0}
	cases := []struct {
		in   Expr
		want Expr
	}{
		{MulX(x, C(1)), x},
		{MulX(C(1), x), x},
		{AddX(x, C(0)), x},
		{AddX(C(0), x), x},
		{SubX(x, C(0)), x},
		{DivX(x, C(1)), x},
		{Un(Neg, Un(Neg, x)), x},
	}
	for i, c := range cases {
		if got := FoldExpr(c.in); got != c.want {
			t.Errorf("case %d: folded to %#v, want the bare local", i, got)
		}
	}
	// x*0 folds to 0 for pure x...
	if got, ok := FoldExpr(MulX(x, C(0))).(*Const); !ok || got.V != 0 {
		t.Error("x*0 should fold to 0")
	}
	// ...but never when the operand pops (IO must be preserved).
	if _, ok := FoldExpr(MulX(PopE(), C(0))).(*Const); ok {
		t.Error("pop()*0 must not be folded away")
	}
}

func TestFoldPrunesBranches(t *testing.T) {
	k := func(cond float64) *Kernel {
		b := NewKernel("k", 1, 1, 1)
		b.WorkBody(
			IfElse(C(cond),
				[]Stmt{Push1(MulX(PopE(), C(2)))},
				[]Stmt{Push1(MulX(PopE(), C(3)))}),
		)
		return b.Build()
	}
	k1 := k(1)
	FoldKernel(k1)
	if len(k1.Work.Body) != 1 {
		t.Fatalf("then-branch should replace the if: %#v", k1.Work.Body)
	}
	if _, ok := k1.Work.Body[0].(*PushStmt); !ok {
		t.Fatalf("expected the push, got %T", k1.Work.Body[0])
	}
	// The folded kernel computes the same outputs.
	out, err := RunKernel(k1, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 10 {
		t.Errorf("folded kernel output %v, want 10", out[0])
	}
}

func TestFoldDropsEmptyLoops(t *testing.T) {
	b := NewKernel("k", 1, 1, 1)
	i := b.Local("i")
	b.WorkBody(
		ForUp(i, Ci(0), Ci(0), Set(i, C(9))), // zero-trip
		Push1(PopE()),
	)
	kk := b.Build()
	FoldKernel(kk)
	if len(kk.Work.Body) != 1 {
		t.Fatalf("zero-trip loop should be removed: %#v", kk.Work.Body)
	}
}

// Property: folding preserves evaluation for randomly generated pure
// expression trees over locals.
func TestQuickFoldPreservesEval(t *testing.T) {
	var gen func(rng *rand.Rand, depth int) Expr
	ops := []BinOp{Add, Sub, Mul, Div, Min, Max, Lt, Le, Eq, And, Or}
	uops := []UnOp{Neg, Abs, Floor, Trunc, Not}
	gen = func(rng *rand.Rand, depth int) Expr {
		if depth <= 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return &Const{V: float64(rng.Intn(9) - 4)}
			}
			return &LocalRef{Idx: rng.Intn(3)}
		}
		if rng.Intn(4) == 0 {
			return &Unary{Op: uops[rng.Intn(len(uops))], X: gen(rng, depth-1)}
		}
		return &Binary{Op: ops[rng.Intn(len(ops))], A: gen(rng, depth-1), B: gen(rng, depth-1)}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := gen(rng, 5)
		locals := []float64{float64(rng.Intn(7) - 3), float64(rng.Intn(7) - 3), float64(rng.Intn(7) - 3)}
		env := &Env{locals: append([]float64(nil), locals...)}
		var finite func(e Expr) bool
		finite = func(e Expr) bool {
			v, err := eval(e, env)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
			switch x := e.(type) {
			case *Unary:
				return finite(x.X)
			case *Binary:
				return finite(x.A) && finite(x.B)
			}
			return true
		}
		before, err1 := eval(e, env)
		allFinite := finite(e) // before folding, which rewrites e in place
		folded := FoldExpr(e)
		after, err2 := eval(folded, env)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		// Division by zero yields NaN/Inf; the documented x*0 -> 0 liberty
		// means folding may turn such values finite, and a comparison or a
		// min/max above them can hide that from the final value. So the
		// property is claimed only for trees every sub-expression of which
		// is finite; for those, require exact agreement.
		if !allFinite {
			return true
		}
		if before != after {
			t.Logf("seed %d: %v vs %v", seed, before, after)
			return false
		}
		return true
	}
	// A fixed source keeps go test ./... deterministic.
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestFoldReducesEstimate(t *testing.T) {
	b := NewKernel("k", 1, 1, 1)
	b.WorkBody(Push1(MulX(PopE(), MulX(C(2), C(3)))))
	k := b.Build()
	before := EstimateKernel(k)
	FoldKernel(k)
	after := EstimateKernel(k)
	if after.Cycles >= before.Cycles {
		t.Errorf("folding should reduce the estimate: %d -> %d", before.Cycles, after.Cycles)
	}
}
