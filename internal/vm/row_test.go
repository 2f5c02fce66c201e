package vm

import (
	"fmt"
	"math"
	"testing"

	"streamit/internal/wfunc"
)

// rowCase is a generated row kernel and a held block to run it over: the
// kernel's pops before and after its loop (each a pop() or one drain loop),
// its init, its loop of n trips over peek(v+p) or pop() (times F[v+q] in a
// product), its push — of acc or of the cell la[k] it stored acc to, alone
// or scaled by c — the field F's length, and the block — reps
// firings an iteration for iters iterations, over a ring whose read end
// sits at base, holding have items, held per iteration from first by per.
type rowCase struct {
	pre, post           int
	drainPre, drainPost bool
	init                *float64
	form                int // 0 peek sum, 1 peek product, 2 pop sum, 3 pop product
	scale               int // 0 push(x), 1 push(x*c), 2 push(c*x), 3 push(x/c)
	cell                int // x is acc when negative, else la[cell] after la[cell] = acc
	c                   float64
	n, p, q, flen       int
	reps, iters         int64
	base, have, first   int
	per                 int64
	items               []float64
}

// rowValues are the inputs a lane must carry bit for bit.
var rowValues = []float64{0, 1, -1.5, 0.25, 3, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -7}

// rowScales are the constants a push scales its sum by.
var rowScales = []float64{0.1, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -3, 1e-300}

// kernel builds the case's work function.
func (rc *rowCase) kernel() *wfunc.Kernel {
	kb := wfunc.NewKernel("row", 0, 0, 0).Dynamic()
	w := kb.FieldArray("w", max(rc.flen, 1))
	v, acc, d := kb.Local("v"), kb.Local("acc"), kb.Local("d")
	la := kb.LocalArray("la", 3)
	pops := func(n int, drain bool) []wfunc.Stmt {
		if drain {
			return []wfunc.Stmt{wfunc.ForUp(d, wfunc.Ci(0), wfunc.Ci(n), wfunc.Pop1())}
		}
		var out []wfunc.Stmt
		for range n {
			out = append(out, wfunc.Pop1())
		}
		return out
	}
	body := pops(rc.pre, rc.drainPre)
	if rc.init != nil {
		body = append(body, wfunc.Set(acc, wfunc.C(*rc.init)))
	}
	x := wfunc.Expr(wfunc.PeekX(wfunc.AddX(v, wfunc.Ci(rc.p))))
	if rc.form >= 2 {
		x = wfunc.PopE()
	}
	if rc.form%2 == 1 {
		x = wfunc.MulX(x, wfunc.FIdx(w, wfunc.AddX(wfunc.Ci(rc.q), v)))
	}
	body = append(body, &wfunc.For{Var: v.Idx, From: wfunc.C(0), To: wfunc.Ci(rc.n), Step: wfunc.C(1),
		Body: []wfunc.Stmt{wfunc.Set(acc, wfunc.AddX(acc, x))}})
	body = append(body, pops(rc.post, rc.drainPost)...)
	x = acc
	if rc.cell >= 0 {
		body = append(body, wfunc.SetLIdx(la, wfunc.Ci(rc.cell), acc))
		x = wfunc.LIdx(la, wfunc.Ci(rc.cell))
	}
	switch rc.scale {
	case 1:
		x = wfunc.MulX(x, wfunc.C(rc.c))
	case 2:
		x = wfunc.MulX(wfunc.C(rc.c), x)
	case 3:
		x = wfunc.DivX(x, wfunc.C(rc.c))
	}
	return kb.WorkBody(append(body, wfunc.Push1(x))...).Build()
}

// heldRun is what one held block leaves behind.
type heldRun struct {
	err                       string
	fired                     int64
	popped, pushed, outPushed int64
	out                       []float64
}

// run fires the case's block: held, through RunHeld, or one iteration at a
// time through RunN under the same hold, the reference.
func (rc *rowCase) run(t *testing.T, p *Program, k *wfunc.Kernel, held bool) (r heldRun) {
	t.Helper()
	m := NewMachine(p)
	st := k.NewState()
	for i := range st.Arrays[0] {
		st.Arrays[0][i] = rowValues[(i*7+3)%len(rowValues)] + float64(i)
	}
	m.SetState(st)
	in, out := wfunc.NewRing(64), wfunc.NewRing(4)
	in.Fill(int64(rc.base), rc.items[:rc.have])
	out.Fill(int64(rc.base*3), nil)
	first := int64(rc.base + rc.first)
	defer func() {
		if rec := recover(); rec != nil {
			r.err = fmt.Sprintf("panic: %v", rec)
		}
		r.popped, r.pushed, r.outPushed = in.Popped, in.Pushed, out.Pushed
		r.out = out.Take(nil, out.Len())
	}()
	if held {
		if err := m.RunHeld(in, out, rc.iters, rc.reps, rc.per, first, &r.fired, nil); err != nil {
			r.err = err.Error()
		}
		return r
	}
	top := in.Pushed
	defer func() { in.Pushed = top }()
	for T := int64(1); T <= rc.iters; T++ {
		in.Pushed = min(top, first+T*rc.per)
		if err := m.RunN(in, out, rc.reps, &r.fired, nil, nil); err != nil {
			r.err = err.Error()
			return r
		}
	}
	return r
}

// check holds RunHeld to the reference bit for bit — the items pushed, the
// ring positions, the firings counted and the fault — except a NaN's
// payload: where two NaNs meet in an add, which one the sum carries is the
// operand order Go's register allocator picks, in lanes and generic code
// alike.

func (rc *rowCase) check(t *testing.T) {
	t.Helper()
	k := rc.kernel()
	p, err := Compile(k.Work)
	if err != nil {
		t.Fatal(err)
	}
	if p.row == nil {
		t.Fatalf("%+v: not a row kernel", *rc)
	}
	want, got := rc.run(t, p, k, false), rc.run(t, p, k, true)
	if got.err != want.err || got.fired != want.fired || got.popped != want.popped ||
		got.pushed != want.pushed || got.outPushed != want.outPushed || !sameBits(quiet(got.out), quiet(want.out)) {
		t.Fatalf("%+v:\n  lanes     %+v\n  reference %+v", *rc, got, want)
	}
}

// quiet replaces every NaN by math.NaN().
func quiet(xs []float64) []float64 {
	for i, x := range xs {
		if math.IsNaN(x) {
			xs[i] = math.NaN()
		}
	}
	return xs
}

// TestRowKernelLanes runs the seed table of FuzzRowKernel: FIRs, adders and
// pop sums whose held blocks cut a group of four, wrap the ring, run short
// of F, and read past what their iteration is held to.
func TestRowKernelLanes(t *testing.T) {
	for _, seed := range rowSeeds {
		rc := decodeRow(seed)
		rc.check(t)
	}
}

// rowSeeds are FuzzRowKernel's seeds, each a case's bytes in decodeRow's
// order, then item values.
var rowSeeds = [][]byte{
	{},
	{63, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 7, 0, 0, 0, 60, 0, 0, 0, 6, 1, 8, 0, 5, 1, 7, 1, 9, 0, 2, 1},  // a 64-tap FIR, 8 firings, wrapped
	{31, 0, 2, 0, 1, 1, 1, 0, 1, 0, 7, 0, 0, 0, 0, 50, 0, 0, 0, 2, 1, 3, 1, 4, 0, 10, 1, 6, 0},       // decimating, 8 firings an iteration
	{7, 1, 0, 0, 0, 0, 2, 0, 0, 0, 3, 7, 0, 0, 0, 63, 0, 0, 0, 5, 0, 5, 1, 1, 1, 8, 1},               // an adder's pop sum, wrapped
	{20, 3, 1, 1, 0, 6, 0, 2, 0, 0, 4, 9, 2, 0, 0, 7, 0, 0, 0, 1, 1, 2, 1, 3, 1, 4, 1},               // a peek sum held short of its last group
	{5, 0, 1, 0, 0, 9, 1, 1, 3, 2, 0, 7, 0, 0, 0, 8, 0, 0, 0, 1, 1, 1, 1},                            // F one short
	{69, 2, 0, 1, 1, 2, 1, 0, 0, 0, 8, 8, 0, 2, 0, 3, 0, 0, 0, 9, 1, 7, 0, 6, 1},                     // its last firing reads past the hold
	{15, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 12, 0, 0, 3, 40, 0, 0, 0, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1, 8, 1}, // the ring one item short
	{63, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 7, 0, 0, 0, 60, 1, 1, 0, 6, 1, 8, 0, 5, 1, 7, 1, 9, 0, 2, 1},  // FMRadio's fused band: la[0] = acc; push(la[0] * 0.1)
	{31, 0, 2, 0, 1, 1, 1, 0, 1, 0, 7, 0, 0, 0, 0, 50, 2, 0, 5, 2, 1, 3, 1, 4, 0, 10, 1, 6, 0},       // push(NaN * acc), decimating
	{7, 1, 0, 0, 0, 0, 2, 0, 0, 0, 3, 7, 0, 0, 0, 63, 3, 3, 2, 5, 0, 5, 1, 1, 1, 8, 1},               // a pop sum divided by -0 through la[2]
	{5, 0, 1, 0, 0, 9, 1, 1, 3, 2, 0, 7, 0, 0, 0, 8, 1, 2, 3, 1, 1, 1, 1},                            // times +Inf through la[1], F one short
}

// decodeRow turns bytes into a case.
func decodeRow(data []byte) *rowCase {
	pick := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b % n
	}
	rc := &rowCase{n: pick(70) + 1, pre: pick(4), post: pick(4), drainPre: pick(2) == 1, drainPost: pick(2) == 1}
	if c := pick(len(rowValues) + 1); c > 0 {
		rc.init = &rowValues[c-1]
	}
	rc.form, rc.p, rc.q = pick(4), pick(4), pick(4)
	if rc.form >= 2 {
		rc.p = 0
	}
	rc.flen = rc.q + rc.n - pick(3)/2 // sometimes one short
	rc.reps, rc.iters = int64(pick(9)+1), int64(pick(13)+1)
	rc.iters = max(1, rc.iters/rc.reps)
	pops := rc.pre + rc.post
	if rc.form >= 2 {
		pops += rc.n
	}
	need := max(pops, rc.pre+rc.p+rc.n)
	// per iteration the producer delivers reps·pops items, less a cut
	// that the hold shows at some iteration; the ring may hold less still.
	rc.per = rc.reps*int64(pops) - int64(pick(3)/2)
	rc.first = need - pops - pick(3)/2
	total := rc.first + int(rc.iters*rc.per)
	rc.have = max(0, min(total-pick(4)/3, 1024))
	rc.base = pick(64)
	rc.scale, rc.cell = pick(4), pick(4)-1
	rc.c = rowScales[pick(len(rowScales))]
	rc.items = make([]float64, rc.have)
	for i := range rc.items {
		rc.items[i] = rowValues[pick(len(rowValues))]
		if pick(2) == 1 {
			rc.items[i] += float64(i)
		}
	}
	return rc
}

// FuzzRowKernel decodes bytes into a row kernel and a held block, and holds
// RunHeld's lanes to RunN run one iteration at a time under the same hold,
// bit for bit.
func FuzzRowKernel(f *testing.F) {
	for _, seed := range rowSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeRow(data).check(t)
	})
}

// TestRowKernelNearMisses: FIRs that are row kernels — the plain one, and
// those whose push scales the sum, directly or through one local-array
// cell — and bodies one step outside the shape, which are not.
func TestRowKernelNearMisses(t *testing.T) {
	kb := wfunc.NewKernel("near", 0, 0, 0).Dynamic()
	w, la := kb.FieldArray("w", 8), kb.LocalArray("la", 8)
	cnt := kb.Field("count", 0)
	v, acc, n := kb.Local("v"), kb.Local("acc"), kb.Local("n")
	fir := func(x wfunc.Expr) wfunc.Stmt {
		return wfunc.ForUp(v, wfunc.Ci(0), wfunc.Ci(8), wfunc.Set(acc, wfunc.AddX(acc, x)))
	}
	tap := wfunc.MulX(wfunc.PeekX(v), wfunc.FIdx(w, v))
	// fused is fuse.Chain's FIR-then-gain: the sum stored to la[0], the
	// push x.
	fused := func(x wfunc.Expr, more ...wfunc.Stmt) []wfunc.Stmt {
		body := append([]wfunc.Stmt{fir(tap), wfunc.Pop1(), wfunc.SetLIdx(la, wfunc.Ci(0), acc)}, more...)
		return append(body, wfunc.Push1(x))
	}
	cell := wfunc.LIdx(la, wfunc.Ci(0))
	for _, tc := range []struct {
		name string
		row  bool
		body []wfunc.Stmt
	}{
		{"the FIR", true, []wfunc.Stmt{fir(tap), wfunc.Pop1(), wfunc.Push1(acc)}},
		{"push(acc*2)", true, []wfunc.Stmt{fir(tap), wfunc.Pop1(), wfunc.Push1(wfunc.MulX(acc, wfunc.C(2)))}},
		{"push(2*acc)", true, []wfunc.Stmt{fir(tap), wfunc.Pop1(), wfunc.Push1(wfunc.MulX(wfunc.C(2), acc))}},
		{"push(acc/4)", true, []wfunc.Stmt{fir(tap), wfunc.Pop1(), wfunc.Push1(wfunc.DivX(acc, wfunc.C(4)))}},
		{"la[0] = acc; push(la[0]*0.1)", true, fused(wfunc.MulX(cell, wfunc.C(0.1)))},
		{"la[0] = acc; push(0.1*la[0])", true, fused(wfunc.MulX(wfunc.C(0.1), cell))},
		{"la[0] = acc; push(la[0]/3)", true, fused(wfunc.DivX(cell, wfunc.C(3)))},
		{"la[0] = acc; push(acc*0.1)", true, fused(wfunc.MulX(acc, wfunc.C(0.1)))},
		{"stores to a field", false, []wfunc.Stmt{fir(tap), wfunc.SetF(cnt, wfunc.C(1)), wfunc.Pop1(), wfunc.Push1(acc)}},
		{"two pushes", false, []wfunc.Stmt{fir(tap), wfunc.Pop1(), wfunc.Push1(acc), wfunc.Push1(acc)}},
		{"a second assignment to acc", false, []wfunc.Stmt{wfunc.Set(acc, wfunc.C(0)), fir(tap), wfunc.Set(acc, wfunc.C(1)), wfunc.Pop1(), wfunc.Push1(acc)}},
		{"a loop bound that is not a constant", false, []wfunc.Stmt{
			wfunc.Set(n, wfunc.C(8)), wfunc.ForUp(v, wfunc.Ci(0), n, wfunc.Set(acc, wfunc.AddX(acc, tap))), wfunc.Pop1(), wfunc.Push1(acc)}},
		{"a local-array operand", false, []wfunc.Stmt{fir(wfunc.MulX(wfunc.PeekX(v), wfunc.LIdx(la, v))), wfunc.Pop1(), wfunc.Push1(acc)}},
		{"a negative peek offset", false, []wfunc.Stmt{fir(wfunc.PeekX(wfunc.SubX(v, wfunc.Ci(1)))), wfunc.Pop1(), wfunc.Push1(acc)}},
		{"a drain loop over acc", false, []wfunc.Stmt{fir(tap), wfunc.ForUp(acc, wfunc.Ci(0), wfunc.Ci(1), wfunc.Pop1()), wfunc.Push1(acc)}},
		{"a second store", false, fused(cell, wfunc.SetLIdx(la, wfunc.Ci(1), acc))},
		{"a store at a computed index", false, []wfunc.Stmt{fir(tap), wfunc.Pop1(), wfunc.SetLIdx(la, n, acc), wfunc.Push1(wfunc.LIdx(la, n))}},
		{"a store past the array", false, []wfunc.Stmt{fir(tap), wfunc.Pop1(), wfunc.SetLIdx(la, wfunc.Ci(8), acc), wfunc.Push1(acc)}},
		{"a push of a different cell", false, fused(wfunc.MulX(wfunc.LIdx(la, wfunc.Ci(1)), wfunc.C(0.1)))},
		{"a push of a cell never stored", false, []wfunc.Stmt{fir(tap), wfunc.Pop1(), wfunc.Push1(cell)}},
		{"push(acc+1)", false, []wfunc.Stmt{fir(tap), wfunc.Pop1(), wfunc.Push1(wfunc.AddX(acc, wfunc.C(1)))}},
		{"push(acc*n)", false, []wfunc.Stmt{fir(tap), wfunc.Pop1(), wfunc.Push1(wfunc.MulX(acc, n))}},
		{"push(4/acc)", false, []wfunc.Stmt{fir(tap), wfunc.Pop1(), wfunc.Push1(wfunc.DivX(wfunc.C(4), acc))}},
		{"push(acc*acc)", false, []wfunc.Stmt{fir(tap), wfunc.Pop1(), wfunc.Push1(wfunc.MulX(acc, acc))}},
		{"la[0] = acc*2", false, []wfunc.Stmt{fir(tap), wfunc.Pop1(), wfunc.SetLIdx(la, wfunc.Ci(0), wfunc.MulX(acc, wfunc.C(2))), wfunc.Push1(cell)}},
	} {
		k := kb.WorkBody(tc.body...).Build()
		p, err := Compile(k.Work)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (p.row != nil) != tc.row {
			t.Errorf("%q: row kernel %v", tc.name, p.row != nil)
		}
	}
}
