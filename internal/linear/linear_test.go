package linear

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streamit/internal/apps"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/wfunc"
)

func firKernel(name string, weights []float64) *wfunc.Kernel {
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
	return b.Build()
}

// runRep drives a linear rep over an input stream directly.
func runRep(t *testing.T, r *Rep, input []float64) []float64 {
	t.Helper()
	var out []float64
	for off := 0; off+r.Peek <= len(input); off += r.Pop {
		o, err := r.Apply(input[off:])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o...)
		if r.Pop == 0 {
			break
		}
	}
	return out
}

func randStream(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Round(rng.NormFloat64()*8) / 4
	}
	return out
}

func randRep(rng *rand.Rand, maxRate int) *Rep {
	pop := rng.Intn(maxRate) + 1
	push := rng.Intn(maxRate) + 1
	peek := pop + rng.Intn(3)
	r := NewRep(peek, pop, push)
	for j := range r.A {
		for i := range r.A[j] {
			r.A[j][i] = math.Round(rng.NormFloat64() * 2)
		}
		r.B[j] = math.Round(rng.NormFloat64())
	}
	return r
}

func TestExtractFIR(t *testing.T) {
	weights := []float64{1, -2, 3, 0.5}
	r, err := Extract(firKernel("FIR", weights))
	if err != nil {
		t.Fatal(err)
	}
	if r.Peek != len(weights) || r.Pop != 1 || r.Push != 1 {
		t.Fatalf("FIR extracts to peek/pop/push %d/%d/%d, want %d/1/1", r.Peek, r.Pop, r.Push, len(weights))
	}
	for i, w := range weights {
		if r.A[0][i] != w {
			t.Errorf("A[0][%d] = %v, want %v", i, r.A[0][i], w)
		}
	}
	if r.B[0] != 0 {
		t.Errorf("FIR constant = %v, want 0", r.B[0])
	}
}

func TestExtractUsesInitConstants(t *testing.T) {
	// Weights computed by init (sines) must appear in the extracted rep.
	n := 4
	b := wfunc.NewKernel("SineFIR", n, 1, 1)
	w := b.FieldArray("w", n)
	i := b.Local("i")
	sum := b.Local("sum")
	b.InitBody(wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(n),
		wfunc.SetFIdx(w, i, wfunc.Un(wfunc.Sin, wfunc.AddX(i, wfunc.C(1))))))
	b.WorkBody(
		wfunc.Set(sum, wfunc.C(0)),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(n),
			wfunc.Set(sum, wfunc.AddX(sum, wfunc.MulX(wfunc.PeekX(i), wfunc.FIdx(w, i))))),
		wfunc.Pop1(),
		wfunc.Push1(sum),
	)
	r, err := Extract(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := math.Sin(float64(i) + 1)
		if math.Abs(r.A[0][i]-want) > 1e-12 {
			t.Errorf("coeff[%d] = %v, want %v", i, r.A[0][i], want)
		}
	}
}

// TestExtractFoldsConstantOperators: an operator applied to constants folds
// to the value the IL's shared operator table (wfunc.EvalUnary/EvalBinary)
// defines, so the extracted coefficient is the one every backend computes:
// % truncates to integers, shifts mask to 63, logic yields 0/1.
func TestExtractFoldsConstantOperators(t *testing.T) {
	c := wfunc.C
	un := func(op wfunc.UnOp, x float64) wfunc.Expr { return wfunc.Un(op, c(x)) }
	bin := func(op wfunc.BinOp, a, b float64) wfunc.Expr { return wfunc.Bin(op, c(a), c(b)) }
	for _, tc := range []struct {
		name string
		e    wfunc.Expr
		want float64
	}{
		{"not", un(wfunc.Not, 0), 1},
		{"bitnot", un(wfunc.BitNot, 5.9), -6},
		{"trunc", un(wfunc.Trunc, -2.7), -2},
		{"abs", un(wfunc.Abs, -2.5), 2.5},
		{"sin", un(wfunc.Sin, 0.5), math.Sin(0.5)},
		{"cos", un(wfunc.Cos, 0.5), math.Cos(0.5)},
		{"tan", un(wfunc.Tan, 0.5), math.Tan(0.5)},
		{"asin", un(wfunc.Asin, 0.5), math.Asin(0.5)},
		{"acos", un(wfunc.Acos, 0.5), math.Acos(0.5)},
		{"atan", un(wfunc.Atan, 0.5), math.Atan(0.5)},
		{"exp", un(wfunc.Exp, 0.5), math.Exp(0.5)},
		{"log", un(wfunc.Log, 0.5), math.Log(0.5)},
		{"sqrt", un(wfunc.Sqrt, 2), math.Sqrt(2)},
		{"floor", un(wfunc.Floor, -2.5), -3},
		{"ceil", un(wfunc.Ceil, -2.5), -2},
		{"round", un(wfunc.Round, 2.5), 3},
		{"mod", bin(wfunc.Mod, 7.9, 3.2), 1},
		{"mod by zero", bin(wfunc.Mod, 7, 0.5), math.NaN()},
		{"pow", bin(wfunc.Pow, 2, 10), 1024},
		{"atan2", bin(wfunc.Atan2, 1, 2), math.Atan2(1, 2)},
		{"min", bin(wfunc.Min, 3, -4), -4},
		{"max", bin(wfunc.Max, 3, -4), 3},
		{"and", bin(wfunc.And, 2, 0), 0},
		{"or", bin(wfunc.Or, 2, 0), 1},
		{"bitand", bin(wfunc.BitAnd, 12.7, 10), 8},
		{"bitor", bin(wfunc.BitOr, 12, 10), 14},
		{"bitxor", bin(wfunc.BitXor, 12, 10), 6},
		{"shl", bin(wfunc.Shl, 1, 65), 2},
		{"shr", bin(wfunc.Shr, -8, 65), -4},
		{"eq", bin(wfunc.Eq, 2, 2), 1},
		{"ne", bin(wfunc.Ne, 2, 2), 0},
		{"lt", bin(wfunc.Lt, 1, 2), 1},
		{"le", bin(wfunc.Le, 2, 2), 1},
		{"gt", bin(wfunc.Gt, 1, 2), 0},
		{"ge", bin(wfunc.Ge, 1, 2), 0},
	} {
		b := wfunc.NewKernel("Fold", 1, 1, 1)
		b.WorkBody(wfunc.Push1(wfunc.MulX(wfunc.PopE(), tc.e)))
		r, err := Extract(b.Build())
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := r.A[0][0]; math.Float64bits(got) != math.Float64bits(tc.want) && !(math.IsNaN(got) && math.IsNaN(tc.want)) {
			t.Errorf("%s: coefficient %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestExtractRateChangers(t *testing.T) {
	// Decimator: pop 2, push mean.
	b := wfunc.NewKernel("Dec", 2, 2, 1)
	b.WorkBody(wfunc.Push1(wfunc.MulX(wfunc.AddX(wfunc.PopE(), wfunc.PopE()), wfunc.C(0.5))))
	r, err := Extract(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if r.A[0][0] != 0.5 || r.A[0][1] != 0.5 {
		t.Errorf("decimator row = %v", r.A[0])
	}
	// Expander: push x, x/2.
	b2 := wfunc.NewKernel("Exp", 1, 1, 2)
	x := b2.Local("x")
	b2.WorkBody(
		wfunc.Set(x, wfunc.PopE()),
		wfunc.Push1(x),
		wfunc.Push1(wfunc.DivX(x, wfunc.C(2))),
	)
	r2, err := Extract(b2.Build())
	if err != nil {
		t.Fatal(err)
	}
	if r2.A[0][0] != 1 || r2.A[1][0] != 0.5 {
		t.Errorf("expander rows = %v %v", r2.A[0], r2.A[1])
	}
}

func TestExtractRejectsNonlinear(t *testing.T) {
	// Squarer: x*x.
	b := wfunc.NewKernel("Sq", 1, 1, 1)
	x := b.Local("x")
	b.WorkBody(wfunc.Set(x, wfunc.PopE()), wfunc.Push1(wfunc.MulX(x, x)))
	if _, err := Extract(b.Build()); err == nil {
		t.Fatal("squarer should not be linear")
	}
	// Stateful accumulator.
	b2 := wfunc.NewKernel("Acc", 1, 1, 1)
	a := b2.Field("a", 0)
	b2.WorkBody(wfunc.SetF(a, wfunc.AddX(a, wfunc.PopE())), wfunc.Push1(a))
	if _, err := Extract(b2.Build()); err == nil {
		t.Fatal("accumulator should not be linear")
	}
	// Data-dependent branch.
	b3 := wfunc.NewKernel("Br", 1, 1, 1)
	y := b3.Local("y")
	b3.WorkBody(
		wfunc.Set(y, wfunc.PopE()),
		wfunc.IfElse(wfunc.Bin(wfunc.Gt, y, wfunc.C(0)),
			[]wfunc.Stmt{wfunc.Push1(y)},
			[]wfunc.Stmt{wfunc.Push1(wfunc.Un(wfunc.Neg, y))}),
	)
	if _, err := Extract(b3.Build()); err == nil {
		t.Fatal("abs-filter should not be linear")
	}
}

// Property: pipeline combination is semantics-preserving.
func TestQuickCombinePipeline(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fR := randRep(rng, 3)
		gR := randRep(rng, 3)
		comb, err := CombinePipeline(fR, gR)
		if err != nil {
			t.Log(err)
			return false
		}
		input := randStream(seed, comb.Peek+6*max(comb.Pop, 1))
		// Reference: run F over input, then G over intermediates.
		inter := runRep(t, fR, input)
		want := runRep(t, gR, inter)
		got := runRep(t, comb, input)
		n := min(len(want), len(got))
		if n == 0 {
			return false
		}
		for i := 0; i < n; i++ {
			if math.Abs(want[i]-got[i]) > 1e-6 {
				t.Logf("seed %d: mismatch at %d: want %v got %v", seed, i, want[i], got[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: duplicate-split/round-robin-join combination preserves
// semantics.
func TestQuickCombineSplitJoinDuplicate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3) + 2
		children := make([]*Rep, n)
		weights := make([]int, n)
		// Duplicate split: children must consume at a common rate per
		// combined firing; use pop=1 with varying peeks and pushes.
		for i := range children {
			push := rng.Intn(3) + 1
			peek := 1 + rng.Intn(3)
			r := NewRep(peek, 1, push)
			for j := range r.A {
				for k := range r.A[j] {
					r.A[j][k] = math.Round(rng.NormFloat64() * 2)
				}
			}
			children[i] = r
			weights[i] = push // one firing per cycle keeps rates aligned
		}
		comb, err := CombineSplitJoin(ir.Duplicate(), children, ir.RoundRobin(weights...))
		if err != nil {
			t.Log(err)
			return false
		}
		input := randStream(seed, comb.Peek+5*comb.Pop)
		// Reference: run each child over the full input; joiner interleaves
		// w_i items per cycle.
		outs := make([][]float64, n)
		for i, c := range children {
			outs[i] = runRep(t, c, input)
		}
		var want []float64
		for cyc := 0; ; cyc++ {
			ok := true
			for i := range outs {
				if len(outs[i]) < (cyc+1)*weights[i] {
					ok = false
				}
			}
			if !ok {
				break
			}
			for i := range outs {
				want = append(want, outs[i][cyc*weights[i]:(cyc+1)*weights[i]]...)
			}
		}
		got := runRep(t, comb, input)
		m := min(len(want), len(got))
		if m == 0 {
			return false
		}
		for i := 0; i < m; i++ {
			if math.Abs(want[i]-got[i]) > 1e-6 {
				t.Logf("seed %d: mismatch at %d: want %v got %v", seed, i, want[i], got[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCombineSplitJoinRoundRobinSplit(t *testing.T) {
	// RR(1,1) split to two gain filters, RR(1,1) join: combined must equal
	// per-lane gains.
	g1 := NewRep(1, 1, 1)
	g1.A[0][0] = 2
	g2 := NewRep(1, 1, 1)
	g2.A[0][0] = 3
	comb, err := CombineSplitJoin(ir.RoundRobin(1, 1), []*Rep{g1, g2}, ir.RoundRobin(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	input := []float64{10, 20, 30, 40}
	got := runRep(t, comb, input)
	want := []float64{20, 60, 60, 120}
	for i := range want {
		if i < len(got) && got[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestToKernelMatchesRep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		r := randRep(rng, 3)
		k := ToKernel("M", r)
		if err := VerifyEquivalent(r, k, 6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func buildFIRFilter(name string, weights []float64) *ir.Filter {
	return &ir.Filter{Kernel: firKernel(name, weights), In: ir.TypeFloat, Out: ir.TypeFloat}
}

func TestOptimizePipelineEndToEnd(t *testing.T) {
	run := func(opt *Options) ([]float64, *Report) {
		src := exec.SliceSource("src", randStream(3, 64))
		snk, got := exec.SliceSink("snk")
		stream := ir.Stream(ir.Pipe("chain",
			buildFIRFilter("f1", []float64{1, 2, 3, 4, 5, 6, 7, 8}),
			buildFIRFilter("f2", []float64{2, -1, 0.5, 0.25}),
		))
		rep := &Report{}
		if opt != nil {
			var err error
			stream, err = Optimize(stream, *opt, rep)
			if err != nil {
				t.Fatal(err)
			}
		}
		prog := &ir.Program{Name: "p", Top: ir.Pipe("main", src, stream, snk)}
		out, err := exec.RunCollect(prog, 128, got)
		if err != nil {
			t.Fatal(err)
		}
		return out, rep
	}
	base, _ := run(nil)
	combined, repC := run(&Options{Combine: true})
	if repC.Combined < 1 {
		t.Errorf("expected at least one combination, report: %+v", repC)
	}
	n := min(len(base), len(combined))
	if n < 32 {
		t.Fatalf("too few outputs to compare: %d", n)
	}
	for i := 0; i < n; i++ {
		if math.Abs(base[i]-combined[i]) > 1e-6 {
			t.Fatalf("combined diverges at %d: %v vs %v", i, combined[i], base[i])
		}
	}
}

func TestOptimizeSplitJoinEndToEnd(t *testing.T) {
	mk := func() ir.Stream {
		return ir.SJ("eq", ir.Duplicate(), ir.RoundRobin(1, 1),
			buildFIRFilter("b1", []float64{1, 0.5, 0.25, 2, 1, -1, 3, 0.125}),
			buildFIRFilter("b2", []float64{-1, 2, 0.75, 1, 0.5, 4, -2, 1}),
		)
	}
	runIt := func(s ir.Stream) []float64 {
		src := exec.SliceSource("src", randStream(9, 32))
		snk, got := exec.SliceSink("snk")
		prog := &ir.Program{Name: "p", Top: ir.Pipe("main", src, s, snk)}
		out, err := exec.RunCollect(prog, 64, got)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := runIt(mk())
	rep := &Report{}
	opt, err := Optimize(mk(), Options{Combine: true}, rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Combined < 1 {
		t.Errorf("splitjoin was not combined: %+v", rep)
	}
	optOut := runIt(opt)
	n := min(len(base), len(optOut))
	if n < 16 {
		t.Fatalf("too few outputs: %d", n)
	}
	for i := 0; i < n; i++ {
		if math.Abs(base[i]-optOut[i]) > 1e-6 {
			t.Fatalf("optimized splitjoin diverges at %d: %v vs %v", i, optOut[i], base[i])
		}
	}
}

// TestOptimizeSplitsRunsAtTheCheapestCuts: a run of linear filters is cut
// where the nest costs least over the whole run. An expander's zero rows
// cost the nest until the FIR after it joins, so a cascade of expanders
// and FIRs collapses whole, where a greedy merge of neighbours stops at
// the second expander; a filter-bank branch splits at its expander, since
// combined whole it recomputes each decimated sample for every row; and
// an expander that no FIR follows stays as written, since the nest would
// multiply its zero rows, which its own IL never does.
func TestOptimizeSplitsRunsAtTheCheapestCuts(t *testing.T) {
	for _, tc := range []struct {
		name             string
		mk               func() ir.Stream
		combined, matrix int
	}{
		{"cascade", func() ir.Stream {
			return ir.Pipe("cascade", apps.Upsample("u1", 2), apps.FIR("f1", 32, 0.2),
				apps.Upsample("u2", 2), apps.FIR("f2", 32, 0.1))
		}, 3, 1},
		{"branch", func() ir.Stream {
			return ir.Pipe("branch", apps.FIR("a", 32, 0.3), apps.Downsample("d", 8),
				apps.Upsample("u", 8), apps.FIR("s", 32, 0.3))
		}, 2, 2},
		{"zero rows", func() ir.Stream {
			return ir.Pipe("zeros", apps.FIR("a", 32, 0.3), apps.Downsample("d", 8), apps.Upsample("u", 8))
		}, 1, 1},
	} {
		runIt := func(s ir.Stream) []float64 {
			snk, got := exec.SliceSink("snk")
			prog := &ir.Program{Name: "p", Top: ir.Pipe("main", exec.SliceSource("src", randStream(5, 64)), s, snk)}
			out, err := exec.RunCollect(prog, 64, got)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		rep := &Report{}
		opt, err := Optimize(tc.mk(), Options{Combine: true, Verify: true}, rep)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Combined != tc.combined || rep.MatrixReplaced != tc.matrix {
			t.Errorf("%s: combined %d into %d matrix kernels, want %d into %d",
				tc.name, rep.Combined, rep.MatrixReplaced, tc.combined, tc.matrix)
		}
		base, got := runIt(tc.mk()), runIt(opt)
		if len(got) < 32 || len(base) < len(got) {
			t.Fatalf("%s: %d outputs optimised, %d as written", tc.name, len(got), len(base))
		}
		for i := range got {
			if math.Abs(base[i]-got[i]) > 1e-9 {
				t.Fatalf("%s diverges at %d: %v vs %v", tc.name, i, got[i], base[i])
			}
		}
	}
}

func TestAnalyzeReportsLinearity(t *testing.T) {
	nonlin := func() *ir.Filter {
		b := wfunc.NewKernel("sq", 1, 1, 1)
		x := b.Local("x")
		b.WorkBody(wfunc.Set(x, wfunc.PopE()), wfunc.Push1(wfunc.MulX(x, x)))
		return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
	}()
	s := ir.Pipe("p", buildFIRFilter("lin", []float64{1, 2}), nonlin)
	m := Analyze(s)
	if _, ok := m["lin"]; !ok {
		t.Error("FIR not reported linear")
	}
	if _, ok := m["sq"]; ok {
		t.Error("squarer wrongly reported linear")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestCombineSplitJoinRejections(t *testing.T) {
	a := NewRep(1, 1, 1)
	a.A[0][0] = 1
	if _, err := CombineSplitJoin(ir.Duplicate(), nil, ir.RoundRobin()); err == nil {
		t.Error("empty splitjoin should be rejected")
	}
	if _, err := CombineSplitJoin(ir.Duplicate(), []*Rep{a}, ir.Duplicate()); err == nil {
		t.Error("duplicate joiner should be rejected")
	}
	if _, err := CombineSplitJoin(ir.Null(), []*Rep{a}, ir.RoundRobin(1)); err == nil {
		t.Error("null splitter should be rejected")
	}
	// Duplicate split with mismatched consumption rates.
	b := NewRep(2, 2, 1)
	b.A[0][0] = 1
	if _, err := CombineSplitJoin(ir.Duplicate(), []*Rep{a, b}, ir.RoundRobin(1, 1)); err == nil {
		t.Error("mismatched duplicate consumption should be rejected")
	}
}

func TestVerifyEquivalentDetectsDivergence(t *testing.T) {
	r := NewRep(2, 1, 1)
	r.A[0][0] = 1
	r.A[0][1] = 2
	// A kernel computing something different.
	wrong := firKernel("wrong", []float64{1, 3})
	if err := VerifyEquivalent(r, wrong, 4); err == nil {
		t.Error("divergence not detected")
	}
	right := firKernel("right", []float64{1, 2})
	if err := VerifyEquivalent(r, right, 4); err != nil {
		t.Errorf("false positive: %v", err)
	}
}

func TestOptimizeLeavesFeedbackAlone(t *testing.T) {
	body := buildFIRFilter("loopfir", []float64{1, 1})
	fl := &ir.FeedbackLoop{
		Name: "fl", Join: ir.RoundRobin(1, 1), Body: body,
		Split: ir.Duplicate(), Delay: 2,
	}
	top, err := Optimize(fl, Options{Combine: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := top.(*ir.FeedbackLoop); !ok {
		t.Errorf("feedback loop should survive optimization, got %T", top)
	}
}

func TestAnalyzeSkipsNative(t *testing.T) {
	n := &ir.Filter{
		Kernel: firKernel("nativefir", []float64{1}),
		In:     ir.TypeFloat, Out: ir.TypeFloat,
		WorkFn: func(in, out wfunc.Tape, st *wfunc.State) {},
	}
	m := Analyze(ir.Pipe("p", n))
	if len(m) != 0 {
		t.Errorf("native filters must be opaque to analysis: %v", m)
	}
}

// TestOptimizeVerifyMode: with Verify set, every replacement is
// cross-checked during optimization; a correct pipeline passes.
func TestOptimizeVerifyMode(t *testing.T) {
	s := ir.Pipe("chain",
		buildFIRFilter("v1", []float64{1, 2, 3, 4}),
		buildFIRFilter("v2", []float64{0.5, -1}),
	)
	rep := &Report{}
	if _, err := Optimize(s, Options{Combine: true, Verify: true}, rep); err != nil {
		t.Fatal(err)
	}
	if rep.Combined < 1 {
		t.Errorf("expected combination under verify mode: %+v", rep)
	}
}
