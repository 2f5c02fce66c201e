package fuse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/vm"
	"streamit/internal/wfunc"
)

func filterOf(b *wfunc.KernelBuilder) *ir.Filter {
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// popN unrolls n pops, as the apps' small filters do.
func popN(n int) []wfunc.Stmt {
	var body []wfunc.Stmt
	for j := 0; j < n; j++ {
		body = append(body, wfunc.Pop1())
	}
	return body
}

// mkStateless builds a stateless filter: each output is a scaled window
// sum plus the output index. The sum is never initialised, so the body
// relies on locals starting every firing at zero.
func mkStateless(name string, peek, pop, push int, scale float64) *ir.Filter {
	b := wfunc.NewKernel(name, peek, pop, push)
	i := b.Local("i")
	s := b.Local("s")
	var body []wfunc.Stmt
	body = append(body, wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(peek),
		wfunc.Set(s, wfunc.AddX(s, wfunc.PeekX(i)))))
	for j := 0; j < push; j++ {
		body = append(body, wfunc.Push1(wfunc.AddX(wfunc.MulX(s, wfunc.C(scale)), wfunc.Ci(j))))
	}
	b.WorkBody(append(body, popN(pop)...)...)
	return filterOf(b)
}

// mkStateful builds a consumer with persistent state: a running sum over
// everything it has consumed, emitted per firing with a peek-ahead term.
func mkStateful(name string, peek, pop, push int) *ir.Filter {
	b := wfunc.NewKernel(name, peek, pop, push)
	acc := b.Field("acc", 0)
	i := b.Local("i")
	s := b.Local("s")
	var body []wfunc.Stmt
	body = append(body, wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(peek),
		wfunc.Set(s, wfunc.AddX(s, wfunc.PeekX(i)))))
	body = append(body, wfunc.SetF(acc, wfunc.AddX(acc, s)))
	for j := 0; j < push; j++ {
		body = append(body, wfunc.Push1(wfunc.AddX(acc, wfunc.Ci(j))))
	}
	b.WorkBody(append(body, popN(pop)...)...)
	return filterOf(b)
}

// mkHorner pops inside a loop and inside expressions, and pushes inside a
// loop: both cursors of a fused edge have to move with the iterations.
func mkHorner(name string, pop, push int) *ir.Filter {
	b := wfunc.NewKernel(name, pop, pop, push)
	i := b.Local("i")
	x := b.Local("x")
	b.WorkBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(pop),
			wfunc.Set(x, wfunc.SubX(wfunc.MulX(x, wfunc.C(0.5)), wfunc.PopE()))),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(push),
			wfunc.Push1(wfunc.AddX(x, wfunc.MulX(i, wfunc.C(0.125))))),
	)
	return filterOf(b)
}

// mkBranchy pops in an if condition and in both arms, pushes a difference
// of two pops evaluated in one expression (order matters), breaks out of a
// loop between two pops, and reads a peek behind a pop in one statement.
func mkBranchy(name string, pop, push int) *ir.Filter {
	b := wfunc.NewKernel(name, pop, pop, push)
	i := b.Local("i")
	u := b.Local("u")
	w := b.FieldArray("w", 4)
	b.InitBody(wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(4),
		wfunc.SetFIdx(w, i, wfunc.AddX(wfunc.MulX(i, wfunc.C(0.25)), wfunc.C(1)))))
	var body []wfunc.Stmt
	rest := pop - 1
	then := []wfunc.Stmt{wfunc.Set(u, wfunc.C(1))}
	els := []wfunc.Stmt{wfunc.Set(u, wfunc.C(-1))}
	if rest >= 2 {
		then = append(then, wfunc.Set(u, wfunc.SubX(wfunc.PopE(), wfunc.PopE())))
		els = append(els, wfunc.Set(u, wfunc.AddX(wfunc.MulX(wfunc.PopE(), wfunc.C(3)), wfunc.PeekE(0))), wfunc.Pop1())
		rest -= 2
	}
	body = append(body, wfunc.IfElse(wfunc.Bin(wfunc.Gt, wfunc.Bin(wfunc.Mod, wfunc.PopE(), wfunc.C(3)), wfunc.C(0)), then, els))
	if rest > 0 {
		// The break fires on the last iteration, behind its pop: the cursor
		// update pending at that point has to happen on that path too.
		body = append(body, wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(rest),
			wfunc.Set(u, wfunc.AddX(u, wfunc.PopE())),
			wfunc.IfS(wfunc.Bin(wfunc.Ge, i, wfunc.Ci(rest-1)), &wfunc.Break{})))
	}
	for j := 0; j < push; j++ {
		body = append(body, wfunc.Push1(wfunc.MulX(u, wfunc.FIdx(w, wfunc.Ci(j%4)))))
	}
	b.WorkBody(body...)
	return filterOf(b)
}

// mkScratch accumulates into a local array it never clears and indexes its
// input with computed peeks.
func mkScratch(name string, pop, push int) *ir.Filter {
	b := wfunc.NewKernel(name, pop, pop, push)
	i := b.Local("i")
	a := b.LocalArray("a", pop)
	b.WorkBody(
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(pop),
			wfunc.SetLIdx(a, i, wfunc.AddX(wfunc.LIdx(a, i), wfunc.PeekX(wfunc.SubX(wfunc.Ci(pop-1), i))))),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(push),
			wfunc.Push1(wfunc.SubX(wfunc.LIdx(a, wfunc.Bin(wfunc.Mod, i, wfunc.Ci(pop))), i))),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(pop), wfunc.Pop1()),
	)
	return filterOf(b)
}

// mkGather pushes once per iteration of a loop that starts at one and
// gathers from computed peeks, then drops its input in a loop of bare pops
// — the shape of the cipher suites' permutations.
func mkGather(name string, pop, push int) *ir.Filter {
	b := wfunc.NewKernel(name, pop, pop, push)
	i := b.Local("i")
	b.WorkBody(
		&wfunc.For{Var: i.Idx, From: wfunc.Ci(1), To: wfunc.Ci(push), Body: []wfunc.Stmt{
			wfunc.Push1(wfunc.SubX(wfunc.PeekX(wfunc.Bin(wfunc.Mod, wfunc.MulX(i, wfunc.Ci(3)), wfunc.Ci(pop))), i))}},
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(pop), wfunc.Pop1()),
		wfunc.Push1(i), // the loop variable's value behind the dropped loop
	)
	return filterOf(b)
}

// mkSbox reads its input in groups of four at peeks 4i+k-4 for i from one
// and pushes per items a group, each in a plain statement of the group's
// loop, then drops the input in a loop of bare pops — Serpent's S-box,
// whose pushes fusion turns into stores at per·i + k - per.
func mkSbox(name string, groups, per int) *ir.Filter {
	b := wfunc.NewKernel(name, 4*groups, 4*groups, per*groups)
	i, v := b.Local("i"), b.Local("v")
	t := b.FieldArray("t", 16)
	b.InitBody(wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(16),
		wfunc.SetFIdx(t, i, wfunc.Bin(wfunc.Mod, wfunc.MulX(wfunc.AddX(i, wfunc.Ci(5)), wfunc.Ci(7)), wfunc.Ci(16)))))
	at := func(k int) wfunc.Expr {
		return wfunc.MulX(wfunc.PeekX(wfunc.AddX(wfunc.MulX(i, wfunc.Ci(4)), wfunc.Ci(k-4))), wfunc.Ci(8>>k))
	}
	group := []wfunc.Stmt{
		wfunc.Set(v, wfunc.Un(wfunc.Abs, wfunc.AddX(wfunc.AddX(at(0), at(1)), wfunc.AddX(at(2), at(3))))),
		wfunc.Set(v, wfunc.FIdx(t, wfunc.Bin(wfunc.Mod, v, wfunc.Ci(16)))),
	}
	for k := 0; k < per; k++ {
		group = append(group, wfunc.Push1(wfunc.AddX(wfunc.Bin(wfunc.Mod, wfunc.DivX(v, wfunc.Ci(1<<k)), wfunc.Ci(2)),
			wfunc.MulX(i, wfunc.C(0.25)))))
	}
	b.WorkBody(wfunc.ForUp(i, wfunc.Ci(1), wfunc.Ci(groups+1), group...),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(4*groups), wfunc.Pop1()))
	return filterOf(b)
}

// mkDecimate keeps one item of every pop, the keep-th, and drains the
// rest: behind it, the trips of its producer that store the other items
// are dead.
func mkDecimate(name string, pop, keep int) *ir.Filter {
	b := wfunc.NewKernel(name, pop, pop, 1)
	i := b.Local("i")
	b.WorkBody(wfunc.Push1(wfunc.PeekE(keep)), wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(pop), wfunc.Pop1()))
	return filterOf(b)
}

func ramp(name string) *ir.Filter {
	b := wfunc.NewKernel(name, 0, 0, 1)
	n := b.Field("n", 0)
	b.WorkBody(
		wfunc.Push1(wfunc.Bin(wfunc.Mod, n, wfunc.C(97))),
		wfunc.SetF(n, wfunc.AddX(n, wfunc.C(1))),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeVoid, Out: ir.TypeFloat}
}

// TestConcurrentFusion fuses independent pipelines from concurrent
// goroutines: fusion keeps no state outside the kernels it returns, so
// parallel compiles must share nothing mutable (run under -race).
func TestConcurrentFusion(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				a := mkStateless("a", 2, 1, 2, 0.5)
				b := mkStateless("b", 2, 2, 1, 2)
				c := mkStateful("c", 1, 1, 1)
				abc, _, err := Chain("abc", a, b, c)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if abc.WorkFn != nil || !wfunc.WritesFields(abc.Kernel.Work) {
					t.Errorf("worker %d: fused filter is not a stateful IL kernel", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// outputsOn runs ramp -> mid -> sink on backend for iters iterations and
// returns what the sink saw and the run's error.
func outputsOn(t *testing.T, backend exec.Backend, mid []ir.Stream, iters int) ([]float64, error) {
	t.Helper()
	snk, got := exec.SliceSink("snk")
	children := append([]ir.Stream{ramp("src")}, mid...)
	children = append(children, snk)
	prog := &ir.Program{Name: "t", Top: ir.Pipe("main", children...)}
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	e, err := exec.NewFromGraphBackend(g, s, backend)
	if err != nil {
		t.Fatal(err)
	}
	err = e.Run(iters)
	return *got, err
}

// faultOf is what a run's error says beside the filter and firing, which
// fusion renames and renumbers: the operation and the tape's message.
func faultOf(err error) string {
	var ee *exec.ExecError
	if errors.As(err, &ee) {
		return fmt.Sprintf("%s: %v", ee.Op, ee.Err)
	}
	return fmt.Sprint(err)
}

// wantSameBits compares the common prefix of two output streams bit for
// bit and insists it is long enough to mean something.
func wantSameBits(t *testing.T, what string, plain, fused []float64, atLeast int) {
	t.Helper()
	n := min(len(plain), len(fused))
	if n < atLeast {
		t.Fatalf("%s: too few outputs to compare: %d", what, n)
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(plain[i]) != math.Float64bits(fused[i]) {
			t.Fatalf("%s: output %d differs: pipeline %v, fused %v", what, i, plain[i], fused[i])
		}
	}
}

// wantFusedMatches runs the unfused pipeline on the interpreter and the
// fused filter on both backends: the same outputs bit for bit. A chain
// built to fault (wantFault) must fault, and the fused filter the same
// way after the same outputs; any other chain must run clean. It reports
// whether the pipeline faulted.
func wantFusedMatches(t *testing.T, what string, wantFault bool, mk func() []*ir.Filter) bool {
	t.Helper()
	var mid []ir.Stream
	for _, f := range mk() {
		mid = append(mid, f)
	}
	plain, plainErr := outputsOn(t, exec.BackendInterp, mid, 64)
	atLeast := 16
	switch {
	case !wantFault && plainErr != nil:
		t.Fatalf("%s: pipeline: %v", what, plainErr)
	case wantFault && plainErr == nil:
		t.Fatalf("%s: the pipeline reads past its declared peek but does not fault", what)
	case wantFault:
		atLeast = 0
	}
	for _, backend := range []exec.Backend{exec.BackendVM, exec.BackendInterp} {
		fused, _, err := Chain("fused", mk()...)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got, err := outputsOn(t, backend, []ir.Stream{fused}, 64)
		if faultOf(err) != faultOf(plainErr) {
			t.Fatalf("%s on %s: fused run ends in %v, the pipeline in %v", what, backend, err, plainErr)
		}
		wantSameBits(t, fmt.Sprintf("%s on %s", what, backend), plain, got, atLeast)
	}
	return plainErr != nil
}

// wantPeekRule asserts err is the refusal that names the paper's rule.
func wantPeekRule(t *testing.T, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "may head a chain but never joins one") {
		t.Fatalf("want the peeking-filter rule, got %v", err)
	}
}

// TestFusedMatchesPipeline: fusion preserves outputs for rate-changing,
// peeking-head, and stateful-tail combinations, and refuses a peeking
// consumer.
func TestFusedMatchesPipeline(t *testing.T) {
	cases := []struct {
		name    string
		a, b    func() *ir.Filter
		refused bool
	}{
		{"simple", func() *ir.Filter { return mkStateless("A", 1, 1, 1, 2) },
			func() *ir.Filter { return mkStateless("B", 1, 1, 1, 3) }, false},
		{"rate-change", func() *ir.Filter { return mkStateless("A", 2, 2, 3, 0.5) },
			func() *ir.Filter { return mkStateless("B", 2, 2, 1, 1.5) }, false},
		{"peeking-consumer", func() *ir.Filter { return mkStateless("A", 1, 1, 1, 1) },
			func() *ir.Filter { return mkStateless("B", 5, 1, 1, 0.25) }, true},
		{"peeking-producer", func() *ir.Filter { return mkStateless("A", 4, 2, 1, 1) },
			func() *ir.Filter { return mkStateless("B", 1, 1, 2, 2) }, false},
		{"stateful-consumer", func() *ir.Filter { return mkStateless("A", 1, 1, 2, 1) },
			func() *ir.Filter { return mkStateful("B", 2, 2, 1) }, false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if c.refused {
				_, _, err := Chain("fused", c.a(), c.b())
				wantPeekRule(t, err)
				return
			}
			wantFusedMatches(t, c.name, false, func() []*ir.Filter { return []*ir.Filter{c.a(), c.b()} })
		})
	}
}

// TestChainTable: the n-ary shapes the planner produces — a peeking head
// with a rate-changing middle and a stateful tail, every body style, and a
// head that fires several times inside one fused firing.
func TestChainTable(t *testing.T) {
	cases := map[string]func() []*ir.Filter{
		"fir-head": func() []*ir.Filter {
			return []*ir.Filter{mkStateless("A", 7, 1, 1, 0.5), mkHorner("B", 2, 3), mkBranchy("C", 3, 2), mkStateful("D", 1, 1, 1)}
		},
		"3:2 then 2:3": func() []*ir.Filter {
			return []*ir.Filter{mkHorner("A", 3, 2), mkScratch("B", 2, 3), mkGather("C", 3, 2), mkStateless("D", 1, 1, 1, 3)}
		},
		"peeking head fires thrice": func() []*ir.Filter {
			return []*ir.Filter{mkStateless("A", 5, 2, 1, 1), mkBranchy("B", 3, 3), mkScratch("C", 3, 1)}
		},
		"S-boxes in the middle": func() []*ir.Filter {
			return []*ir.Filter{mkStateless("A", 5, 4, 4, 0.5), mkSbox("B", 2, 4), mkSbox("C", 1, 3),
				mkHorner("D", 3, 2), mkSbox("E", 1, 4), mkGather("F", 4, 3)}
		},
		"six stages": func() []*ir.Filter {
			return []*ir.Filter{mkBranchy("A", 1, 2), mkScratch("B", 4, 3), mkHorner("C", 1, 1),
				mkStateless("D", 2, 2, 3, 0.25), mkBranchy("E", 4, 1), mkStateful("F", 3, 3, 2)}
		},
	}
	for name, mk := range cases {
		mk := mk
		t.Run(name, func(t *testing.T) { wantFusedMatches(t, name, false, mk) })
	}
}

// TestFusedSerpentRoundIsSpans: fusion keeps a Serpent round's loops in
// the VM's span family. The key mix stores into the first edge array, the
// S-box reads it at 4i+k and stores four bits a group at 4i+k into the
// second, the permutation gathers from that onto the tape, and only the
// head's drain is left of the three drains.
func TestFusedSerpentRoundIsSpans(t *testing.T) {
	fused, _, err := Chain("round", apps.KeyXor("key", 128, 3), apps.Sbox("sbox", 128), apps.Permute("perm", 128, 5))
	if err != nil {
		t.Fatal(err)
	}
	var loops func(body []wfunc.Stmt) int
	loops = func(body []wfunc.Stmt) int {
		n := 0
		for _, st := range body {
			switch st := st.(type) {
			case *wfunc.For:
				n += 1 + loops(st.Body)
			case *wfunc.If:
				n += loops(st.Then) + loops(st.Else)
			case *wfunc.While:
				n += 1 + loops(st.Body)
			}
		}
		return n
	}
	p, err := vm.Compile(fused.Kernel.Work)
	if err != nil {
		t.Fatal(err)
	}
	r, d, m, mp, rw := p.SpanCounts()
	if n := loops(fused.Kernel.Work.Body); r != 0 || d != 1 || m != 0 || mp != 3 || rw != 0 || n != 4 {
		t.Errorf("%d loops compile to reduce/drain/move/map/rows = %d/%d/%d/%d/%d spans, want 4 loops: 0/1/0/3/0", n, r, d, m, mp, rw)
	}
	// Behind a stage that turns the ramp into bits, the round is
	// bit-identical to its pipeline on both backends.
	wantFusedMatches(t, "Serpent round", false, func() []*ir.Filter {
		b := wfunc.NewKernel("bits", 1, 1, 1)
		b.WorkBody(wfunc.Push1(wfunc.Bin(wfunc.Mod, wfunc.PopE(), wfunc.Ci(2))))
		return []*ir.Filter{filterOf(b), apps.KeyXor("key", 128, 3), apps.Sbox("sbox", 128), apps.Permute("perm", 128, 5)}
	})
}

// TestChainEdgesTakeTurns: the frame of a chain does not grow with its
// length — internal edges alternate between two local arrays, each as large
// as the largest edge it hosts (a 96-stage Serpent segment with an array
// per edge zeroed and streamed through 97 KB every firing).
func TestChainEdgesTakeTurns(t *testing.T) {
	// Edge sizes in one fused firing: 6, 6, 4, 4, 2.
	fused, _, err := Chain("x", mkHorner("A", 1, 6), mkHorner("B", 1, 1), mkHorner("C", 3, 2),
		mkHorner("D", 1, 1), mkHorner("E", 2, 1), mkHorner("F", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := fused.Kernel.Work.ArraySizes; len(got) != 2 || got[0] != 6 || got[1] != 6 {
		t.Errorf("local arrays %v, want the two edge arrays [6 6]", got)
	}
}

// chainSpec is one stage of a generated chain: a body style and its
// rates; keep is the item a decimating stage pushes, and a stage that
// overreads peeks one item past its declared peek (a head faults, Chain
// refuses any other stage).
type chainSpec struct {
	style, peek, pop, push, keep int
	overread                     bool
}

const (
	styleDecimate = 5
	styleStateful = 6
)

// decodeChain reads a chain of 2-6 stages from b, one byte a choice (0
// once b runs out), over the rate pairs 1:1, 2:3, 3:2, 1:2 and 4:1: any
// body style in any place, a peeking head now and then (one in four of
// them reading past its declared peek, so the run faults), a stateful
// tail now and then, and last, now and then, a plain stage behind the
// head that reads one item past its window through a computed index.
func decodeChain(b []byte) []chainSpec {
	next := func(n int) int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0]) % n
		b = b[1:]
		return v
	}
	rates := [][2]int{{1, 1}, {2, 3}, {3, 2}, {1, 2}, {4, 1}}
	specs := make([]chainSpec, 2+next(5))
	for i := range specs {
		r := rates[next(len(rates))]
		s := chainSpec{style: next(6), peek: r[0], pop: r[0], push: r[1]}
		if s.style == styleDecimate {
			s.push, s.keep = 1, next(s.pop)
		}
		if i == 0 && next(2) == 0 {
			s.style, s.peek, s.overread = 0, s.pop+1+next(4), next(4) == 0
		}
		if i == len(specs)-1 && next(3) == 0 {
			s.style = styleStateful
		}
		specs[i] = s
	}
	if k := next(2 * len(specs)); k > 0 && k < len(specs) && specs[k].style == 0 {
		specs[k].overread = true
	}
	return specs
}

// String is style:peek/pop/push, then @keep for a decimator and + for a
// stage that overreads.
func (s chainSpec) String() string {
	d := fmt.Sprintf("%d:%d/%d/%d", s.style, s.peek, s.pop, s.push)
	if s.style == styleDecimate {
		d += fmt.Sprintf("@%d", s.keep)
	}
	if s.overread {
		d += "+"
	}
	return d
}

// buildChain builds fresh filters for specs.
func buildChain(specs []chainSpec) []*ir.Filter {
	fs := make([]*ir.Filter, len(specs))
	for i, s := range specs {
		name := fmt.Sprintf("K%d", i)
		switch s.style {
		case 0:
			if s.overread {
				fs[i] = mkStateless(name, s.peek+1, s.pop, s.push, 0.5)
				fs[i].Kernel.Peek = s.peek
			} else {
				fs[i] = mkStateless(name, s.peek, s.pop, s.push, 0.5)
			}
		case 1:
			fs[i] = mkHorner(name, s.pop, s.push)
		case 2:
			fs[i] = mkBranchy(name, s.pop, s.push)
		case 3:
			fs[i] = mkScratch(name, s.pop, s.push)
		case 4:
			fs[i] = mkGather(name, s.pop, s.push)
		case styleDecimate:
			fs[i] = mkDecimate(name, s.pop, s.keep)
		case styleStateful:
			fs[i] = mkStateful(name, s.pop, s.pop, s.push)
		}
	}
	return fs
}

// chainTrials are TestFuseRandomized's seeded chains, as the bytes
// decodeChain reads: FuzzChain's seed corpus.
func chainTrials() [][]byte {
	rng := rand.New(rand.NewSource(31))
	trials := make([][]byte, 40)
	for i := range trials {
		trials[i] = make([]byte, 24)
		rng.Read(trials[i])
	}
	return trials
}

// wantChain checks the chain specs describe: CanFollow refuses exactly
// the stages behind the head that read past their window, by name, and
// Chain the first of them; any other chain runs as its pipeline does
// (wantFusedMatches). It reports whether the chain was refused and
// whether its pipeline faulted.
func wantChain(t *testing.T, specs []chainSpec) (refused, faulted bool) {
	t.Helper()
	fs := buildChain(specs)
	first := ""
	for i := 1; i < len(fs); i++ {
		want := fs[i].Kernel.Name + " reads item"
		if err := CanFollow(fs[i-1], fs[i]); (err != nil) != specs[i].overread || err != nil && !strings.Contains(err.Error(), want) {
			t.Fatalf("%v: CanFollow(%s, %s) = %v", specs, fs[i-1].Kernel.Name, fs[i].Kernel.Name, err)
		}
		if specs[i].overread && first == "" {
			first = want
		}
	}
	if first != "" {
		if _, _, err := Chain("fused", fs...); err == nil || !strings.Contains(err.Error(), first) {
			t.Fatalf("%v: Chain: %v, want an error containing %q", specs, err, first)
		}
		return true, false
	}
	return false, wantFusedMatches(t, fmt.Sprint(specs), specs[0].overread, func() []*ir.Filter { return buildChain(specs) })
}

// TestFuseRandomized: seeded random chains (decodeChain). A decimating
// stage leaves most of its producer's trips dead, so random chains drop
// trips and keep them: an overreading head's last trip is dead but
// faults, and the fused run must fault where the pipeline does; an
// overreading stage behind the head is refused.
func TestFuseRandomized(t *testing.T) {
	dropping, faulting, refusing := 0, 0, 0
	for _, b := range chainTrials() {
		specs := decodeChain(b)
		refused, faulted := wantChain(t, specs)
		if refused {
			refusing++
			continue
		}
		if faulted {
			faulting++
		}
		if _, trips, _ := Chain("fused", buildChain(specs)...); slices.ContainsFunc(trips, func(tr Trips) bool { return tr.Kept < tr.Of }) {
			dropping++
		}
	}
	if dropping == 0 || faulting == 0 || refusing == 0 {
		t.Errorf("%d trials drop trips, %d fault and %d are refused: the generator no longer covers all three", dropping, faulting, refusing)
	}
}

// FuzzChain fuses chains decoded from fuzzed bytes: outputs bit-equal to
// the pipeline's on both backends, the same fault, and a refusal of
// exactly the stages behind the head that read past their window.
func FuzzChain(f *testing.F) {
	for _, b := range chainTrials() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) { wantChain(t, decodeChain(b)) })
}

// TestFuseRejections: a peeking non-head, a stateful producer, handlers,
// senders, dynamic rates, native bodies and misplaced pops are refused
// with errors that say why.
func TestFuseRejections(t *testing.T) {
	plain := func() *ir.Filter { return mkStateless("P", 1, 1, 1, 1) }
	refused := func(what, want string, fs ...*ir.Filter) {
		t.Helper()
		_, _, err := Chain("x", fs...)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: want an error containing %q, got %v", what, want, err)
		}
	}
	refused("stateful producer", "only the last stage", mkStateful("S", 1, 1, 1), plain())
	refused("peeking third stage", "may head a chain but never joins one", plain(), plain(), mkStateless("B", 3, 1, 1, 1))

	dynB := wfunc.NewKernel("dyn", 1, 1, 1)
	dynB.Dynamic()
	dynB.WorkBody(wfunc.Push1(wfunc.PopE()))
	refused("dynamic consumer", "dynamic rates", plain(), filterOf(dynB))

	hb := wfunc.NewKernel("h", 1, 1, 1)
	hb.WorkBody(wfunc.Push1(wfunc.PopE()))
	hb.Handler("set", 0)
	refused("handler", "message handlers", filterOf(hb), plain())

	sb := wfunc.NewKernel("s", 1, 1, 1)
	sb.WorkBody(wfunc.Push1(wfunc.PopE()), &wfunc.Send{Portal: 0, Handler: "set", BestEffort: true})
	refused("sender", "sends messages", plain(), filterOf(sb))

	native := plain()
	native.WorkFn = func(in, out wfunc.Tape, _ *wfunc.State) { out.Push(in.Pop()) }
	refused("native", "native filter", native, plain())

	cb := wfunc.NewKernel("c", 2, 2, 1)
	cb.WorkBody(wfunc.Push1(&wfunc.Cond{C: wfunc.PopE(), A: wfunc.PopE(), B: wfunc.PopE()}))
	refused("conditional pop", "a conditional arm", plain(), mkStateless("U", 1, 1, 2, 1), filterOf(cb))
	// The same body reads the real tape when it heads the chain.
	if _, _, err := Chain("x", filterOf(cb), plain()); err != nil {
		t.Errorf("conditional pops in the head stage: %v", err)
	}

	// A loop that assigns its own variable pushes 4 items here, not 8: no
	// cursor can follow it.
	kb := wfunc.NewKernel("skip", 1, 1, 4)
	i, x := kb.Local("i"), kb.Local("x")
	kb.WorkBody(wfunc.Set(x, wfunc.PopE()), wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(8),
		wfunc.Push1(wfunc.AddX(x, i)), wfunc.Set(i, wfunc.AddX(i, wfunc.Ci(1)))))
	refused("loop assigns its variable", "cannot be counted statically", filterOf(kb), plain())

	refused("single filter", "at least two", plain())
}

// BenchmarkFusionOverhead compares a three-filter pipeline against its
// fully fused form: fusion removes per-firing engine and channel overhead.
// filterbank-head does the same for FilterBank's analysis -> down -> up
// (64 taps, factor 8), whose FIR keeps 1 of its 8 rows once fused. An op
// is one steady iteration: one firing of the fused filter.
func BenchmarkFusionOverhead(b *testing.B) {
	threeStage := func() []*ir.Filter {
		return []*ir.Filter{
			mkStateless("A", 3, 1, 1, 0.5),
			mkStateless("B", 1, 1, 1, 2),
			mkStateless("C", 1, 1, 1, 0.25),
		}
	}
	filterbankHead := func() []*ir.Filter {
		return []*ir.Filter{apps.FIR("analysis", 64, 0.3), apps.Downsample("down", 8), apps.Upsample("up", 8)}
	}
	run := func(b *testing.B, mid ...*ir.Filter) {
		snk, _ := exec.SliceSink("snk")
		children := []ir.Stream{ramp("src")}
		for _, f := range mid {
			children = append(children, f)
		}
		children = append(children, snk)
		prog := &ir.Program{Name: "t", Top: ir.Pipe("main", children...)}
		e, err := exec.New(prog)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.RunInit(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.RunSteady(1); err != nil {
				b.Fatal(err)
			}
		}
	}
	fused := func(b *testing.B, mk func() []*ir.Filter) {
		f, _, err := Chain(Name(mk()), mk()...)
		if err != nil {
			b.Fatal(err)
		}
		run(b, f)
	}
	b.Run("unfused", func(b *testing.B) { run(b, threeStage()...) })
	b.Run("fused", func(b *testing.B) { fused(b, threeStage) })
	b.Run("filterbank-head/unfused", func(b *testing.B) { run(b, filterbankHead()...) })
	b.Run("filterbank-head/fused", func(b *testing.B) { fused(b, filterbankHead) })
}

// TestReach: the window one pass over a work body finds, for the shapes
// it follows, and the shapes that leave it unsettled. An unsettled
// window's cells are not compared: no caller reads them.
func TestReach(t *testing.T) {
	type reachEnv struct {
		i, x      *wfunc.LocalRef
		f         *wfunc.FieldRef
		arr, farr int // 4 items each
	}
	none := window{lo: math.MaxInt}
	cases := []struct {
		name string
		body func(e reachEnv) []wfunc.Stmt
		want window
	}{
		{"peek after pops", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Pop1(), wfunc.Push1(wfunc.PeekE(1)), wfunc.Pop1()}
		}, window{2, 3, true, false}},
		{"pops in a loop", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.ForUp(e.i, wfunc.Ci(0), wfunc.Ci(4), wfunc.Push1(wfunc.PopE()))}
		}, window{0, 4, true, false}},
		{"peeks inside and behind a loop of pops", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.ForUp(e.i, wfunc.Ci(0), wfunc.Ci(3), wfunc.Pop1(), wfunc.Push1(wfunc.PeekE(0))), wfunc.Push1(wfunc.PeekE(1))}
		}, window{1, 5, true, false}},
		{"a window read past its peek", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.ForUp(e.i, wfunc.Ci(0), wfunc.Ci(9), wfunc.Set(e.x, wfunc.AddX(e.x, wfunc.PeekX(e.i))))}
		}, window{0, 9, true, false}},
		{"a product modulo a constant", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.ForUp(e.i, wfunc.Ci(0), wfunc.Ci(8),
				wfunc.Push1(wfunc.PeekX(wfunc.Bin(wfunc.Mod, wfunc.MulX(e.i, wfunc.Ci(3)), wfunc.Ci(4)))))}
		}, window{0, 4, true, false}},
		{"a difference", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.ForUp(e.i, wfunc.Ci(0), wfunc.Ci(4), wfunc.Push1(wfunc.PeekX(wfunc.SubX(wfunc.Ci(5), e.i))))}
		}, window{2, 6, true, false}},
		{"a negation", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.ForUp(e.i, wfunc.Ci(1), wfunc.Ci(4), wfunc.Push1(wfunc.PeekX(wfunc.AddX(wfunc.Un(wfunc.Neg, e.i), wfunc.Ci(9)))))}
		}, window{6, 9, true, false}},
		{"if arms that pop", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.IfElse(wfunc.Bin(wfunc.Gt, e.f, wfunc.Ci(0)),
				[]wfunc.Stmt{wfunc.Pop1(), wfunc.Pop1()}, []wfunc.Stmt{wfunc.Set(e.x, wfunc.PeekE(1))}),
				wfunc.Push1(wfunc.PeekE(0))}
		}, window{0, 3, true, true}},
		{"?: arms that pop", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Push1(&wfunc.Cond{C: e.f, A: wfunc.PopE(), B: wfunc.PeekE(2)}), wfunc.Push1(wfunc.PeekE(0))}
		}, window{0, 3, true, true}},
		{"a short-circuit operand", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Push1(wfunc.Bin(wfunc.And, e.f, wfunc.PeekE(2)))}
		}, window{2, 3, true, true}},
		{"scalar field reads", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Set(e.x, e.f), wfunc.Push1(wfunc.MulX(wfunc.PeekE(1), e.f))}
		}, window{1, 2, true, false}},
		{"array indices inside their arrays", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.ForUp(e.i, wfunc.Ci(0), wfunc.Ci(4),
				wfunc.SetLIdx(e.arr, e.i, wfunc.MulX(wfunc.PeekX(e.i), wfunc.FIdx(e.farr, wfunc.SubX(wfunc.Ci(3), e.i)))))}
		}, window{0, 4, true, false}},
		{"a peek at a field's value", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Push1(wfunc.PeekX(e.f))}
		}, none},
		{"a local array index outside its array", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.ForUp(e.i, wfunc.Ci(0), wfunc.Ci(5), wfunc.SetLIdx(e.arr, e.i, wfunc.PeekE(0)))}
		}, none},
		{"a field array index outside its array", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Push1(wfunc.FIdx(e.farr, wfunc.Ci(-1)))}
		}, none},
		{"a loop that assigns its own variable", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.ForUp(e.i, wfunc.Ci(0), wfunc.Ci(4), wfunc.Push1(wfunc.PeekX(e.i)), wfunc.Set(e.i, wfunc.AddX(e.i, wfunc.Ci(1))))}
		}, none},
		{"a while loop", func(e reachEnv) []wfunc.Stmt {
			return []wfunc.Stmt{&wfunc.While{C: wfunc.Bin(wfunc.Lt, e.x, wfunc.Ci(2)), Body: []wfunc.Stmt{wfunc.Set(e.x, wfunc.AddX(e.x, wfunc.PopE()))}}}
		}, none},
	}
	for _, c := range cases {
		b := wfunc.NewKernel(c.name, 4, 4, 1).Dynamic() // rates unchecked
		e := reachEnv{i: b.Local("i"), x: b.Local("x"), f: b.Field("f", 1), arr: b.LocalArray("a", 4), farr: b.FieldArray("w", 4)}
		got := reach(b.WorkBody(c.body(e)...).Build())
		if got != c.want && (c.want.settled || got.settled) {
			t.Errorf("%s: window %+v, want %+v", c.name, got, c.want)
		}
	}
}
