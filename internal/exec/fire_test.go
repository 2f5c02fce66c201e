package exec

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/faults"
	"streamit/internal/fuse"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// ringHost is a coreHost over one ring per edge, read and written alike:
// its positions count the traffic.
type ringHost []*wfunc.Ring

func (h ringHost) inRing(e *ir.Edge) *wfunc.Ring  { return h[e.ID] }
func (h ringHost) outRing(e *ir.Edge) *wfunc.Ring { return h[e.ID] }
func (h ringHost) park(*nodeRT) error             { return nil }

// TestSJCountsMatchRoute pins sjCounts, the profile's arithmetic, to the
// traffic the one routing body actually moves. Every engine's split/join
// profile comes from sjCounts, so the conformance suite, which compares
// engines with each other, cannot see the two drift apart; this can.
func TestSJCountsMatchRoute(t *testing.T) {
	e := func(id int) *ir.Edge { return &ir.Edge{ID: id} }
	cases := []struct {
		name string
		node *ir.Node
	}{
		{"duplicate with a nil out port", &ir.Node{Kind: ir.NodeSplitter, SJ: ir.Duplicate(),
			In: []*ir.Edge{e(0)}, Out: []*ir.Edge{e(1), nil, e(2)}}},
		{"weighted round-robin with a zero weight and a nil out port", &ir.Node{Kind: ir.NodeSplitter,
			SJ: ir.RoundRobin(2, 0, 3, 1), In: []*ir.Edge{e(0)}, Out: []*ir.Edge{e(1), e(2), nil, e(3)}}},
		{"joiner with a nil in port", &ir.Node{Kind: ir.NodeJoiner, SJ: ir.RoundRobin(1, 2, 4),
			In: []*ir.Edge{e(0), nil, e(1)}, Out: []*ir.Edge{e(2)}}},
		{"joiner with a zero weight", &ir.Node{Kind: ir.NodeJoiner, SJ: ir.RoundRobin(3, 0, 2),
			In: []*ir.Edge{e(0), e(1), e(2)}, Out: []*ir.Edge{e(3)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Every ring starts with enough items for every pop.
			const preload = 64
			host := make(ringHost, 4)
			for i := range host {
				host[i] = wfunc.NewRing(0)
				host[i].Append(make([]float64, preload))
			}
			prof := obs.NewProfiler([]string{"sj"})
			c := &core{eng: host}
			rt := &nodeRT{node: tc.node, pst: prof.At(0)}
			const firings = 3
			for i := 0; i < firings; i++ {
				if err := c.fire(rt); err != nil {
					t.Fatal(err)
				}
			}
			var pops, pushes int64
			for _, r := range host {
				pops += r.Popped
				pushes += r.Pushed - preload
			}
			wantPops, wantPushes := sjCounts(tc.node)
			if pops != firings*wantPops || pushes != firings*wantPushes {
				t.Fatalf("route moved %d pops / %d pushes in %d firings, sjCounts says %d / %d per firing",
					pops, pushes, firings, wantPops, wantPushes)
			}
			fp := prof.Snapshot()[0]
			if fp.Firings != firings || fp.Popped != pops || fp.Pushed != pushes {
				t.Fatalf("profile credits %d firings, %d pops, %d pushes; the tapes saw %d firings, %d pops, %d pushes",
					fp.Firings, fp.Popped, fp.Pushed, firings, pops, pushes)
			}
		})
	}
}

// TestTapSeesCommittedPopsOnce: a sink whose work pops its item and then
// fails once is retried. On both engines its tap sees each committed pop
// exactly once, and every node's profile counts firings × rate: the
// rolled-back attempt's pop reaches neither.
func TestTapSeesCommittedPopsOnce(t *testing.T) {
	type engine interface {
		TapSink(name string, fn func(float64)) error
		Run(iters int) error
		Profile() *obs.Profiler
		Degraded() map[string]DegradedStats
	}
	for _, kind := range []string{"sequential", "mapped"} {
		t.Run(kind, func(t *testing.T) {
			failed := false
			snk := nullSink("snk", 1)
			snk.WorkFn = func(in, _ wfunc.Tape, _ *wfunc.State) {
				in.Pop()
				if !failed {
					failed = true
					panic("fails once, after its pop")
				}
			}
			g, err := ir.Flatten(&ir.Program{Name: "tap", Top: ir.Pipe("main", rampFilter("src"), gainFilter("g", 3), snk)})
			if err != nil {
				t.Fatal(err)
			}
			s, err := sched.Compute(g)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{OnError: mustPolicies(t, "retry"), Profile: true}
			var e engine
			if kind == "sequential" {
				e, err = NewFromGraphOpts(g, s, opts)
			} else {
				e, err = NewParallelOpts(g, s, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []float64
			if err := e.TapSink(g.FilterNode[snk].Name, func(v float64) { got = append(got, v) }); err != nil {
				t.Fatal(err)
			}
			const iters = 4
			if err := e.Run(iters); err != nil {
				t.Fatal(err)
			}
			if want := []float64{0, 3, 6, 9}; !reflect.DeepEqual(got, want) {
				t.Fatalf("the tap saw %v over %d committed firings, want %v", got, iters, want)
			}
			if st := e.Degraded()["snk"]; st.Retries != 1 {
				t.Fatalf("degraded stats %+v, want one retry", st)
			}
			byName := map[string]obs.FilterProfile{}
			for _, fp := range e.Profile().Snapshot() {
				byName[fp.Name] = fp
			}
			for _, n := range g.Nodes {
				fp := byName[n.Name]
				if fp.Firings != iters || fp.Popped != iters*int64(n.TotalPop()) || fp.Pushed != iters*int64(n.TotalPush()) {
					t.Errorf("%s: firings/popped/pushed = %d/%d/%d, want %d firings at pop %d, push %d",
						n.Name, fp.Firings, fp.Popped, fp.Pushed, iters, n.TotalPop(), n.TotalPush())
				}
			}
		})
	}
}

// overreadFIR is a row kernel declared peek 4 whose loop reads 7 taps.
func overreadFIR() *ir.Filter {
	b := wfunc.NewKernel("mid", 4, 1, 1)
	w := b.FieldArray("w", 7, 1, 2, 3, 4, 5, 6, 7)
	i, sum := b.Local("i"), b.Local("sum")
	b.WorkBody(
		wfunc.Set(sum, wfunc.C(0)),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(7),
			wfunc.Set(sum, wfunc.AddX(sum, wfunc.MulX(wfunc.PeekX(i), wfunc.FIdx(w, i))))),
		wfunc.Pop1(),
		wfunc.Push1(sum),
	)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// matrixFilter is a 2×4 apps.MatMul declared peek peek, pop 1: its rows
// read 4 columns. With short set, firing errAt multiplies by a matrix one
// element short of 2·4 instead, which faults in its second row.
func matrixFilter(peek int, short bool) *ir.Filter {
	b := wfunc.NewKernel("mid", peek, 1, 2)
	j, i, sum := b.Local("j"), b.Local("i"), b.Local("sum")
	rows := func(m int) wfunc.Stmt {
		return wfunc.ForUp(j, wfunc.Ci(0), wfunc.Ci(2),
			wfunc.Set(sum, wfunc.C(0)),
			wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(4),
				wfunc.Set(sum, wfunc.AddX(sum, wfunc.MulX(wfunc.PeekX(i), wfunc.FIdx(m, wfunc.AddX(wfunc.MulX(j, wfunc.Ci(4)), i)))))),
			wfunc.Push1(sum))
	}
	body := rows(b.FieldArray("m", 8, 1, -2, 3, -4, 5, -6, 7, -8))
	if short {
		n := b.Field("n", 0)
		body = wfunc.IfElse(wfunc.Bin(wfunc.Eq, n, wfunc.Ci(errAt)),
			[]wfunc.Stmt{rows(b.FieldArray("short", 7, 2, 1, 0, -1, -2, -3, -4))},
			[]wfunc.Stmt{body, wfunc.SetF(n, wfunc.AddX(n, wfunc.C(1)))})
	}
	b.WorkBody(body, wfunc.Pop1())
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// headFilter is fuse.Chain's FIR head (FilterBank) declared peek peek, pop
// 3, push 1: three rows of a 4-tap FIR, one pop after each, stored at a
// cursor into a local array of 3 cells, then push(la[0]). The rows read 6
// items. With short set, firing errAt starts the cursor at 1, which leaves
// the array one cell short of the rows.
func headFilter(peek int, short bool) *ir.Filter {
	b := wfunc.NewKernel("mid", peek, 3, 1)
	w, la := b.FieldArray("w", 4, 1, -2, 3, -4), b.LocalArray("la", 3)
	j, i, sum, c := b.Local("j"), b.Local("i"), b.Local("sum"), b.Local("c")
	var body []wfunc.Stmt
	if short {
		n := b.Field("n", 0)
		body = append(body, wfunc.Set(c, wfunc.Bin(wfunc.Eq, n, wfunc.Ci(errAt))), wfunc.SetF(n, wfunc.AddX(n, wfunc.C(1))))
	}
	b.WorkBody(append(body,
		wfunc.ForUp(j, wfunc.Ci(0), wfunc.Ci(3),
			wfunc.Set(i, wfunc.C(0)), wfunc.Set(sum, wfunc.C(0)), wfunc.Set(sum, wfunc.C(0)),
			wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(4), wfunc.Set(sum, wfunc.AddX(sum, wfunc.MulX(wfunc.PeekX(i), wfunc.FIdx(w, i))))),
			wfunc.Pop1(), wfunc.SetLIdx(la, c, sum), wfunc.Set(c, wfunc.AddX(c, wfunc.C(1)))),
		wfunc.Push1(wfunc.LIdx(la, wfunc.Ci(0))))...)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// deadRowOverread is fuse.Chain of a 4-tap FIR declared peek 3 ahead of
// a Downsample by 4: the FIR's trips 1-3 are dead, since the decimator
// reads only trip 0's row. Trips 1 and 2 read inside the fused window and
// are dropped; trip 3 reads one item past it, so it stays and faults at
// firing 0, where the unfused FIR faults.
func deadRowOverread() *ir.Filter {
	fir := apps.FIR("mid", 4, 0.3)
	fir.Kernel.Peek = 3
	f, _, err := fuse.Chain("mid", fir, apps.Downsample("dec", 4))
	if err != nil {
		panic(err)
	}
	return f
}

// errorCase builds a fresh copy of src -> mid -> snk for one engine, with
// mid failing at its firing errAt, and the options that make it fail.
type errorCase struct {
	name string
	// src feeds mid; nil is rampFilter.
	src  func() *ir.Filter
	mid  func() *ir.Filter
	opts func(t *testing.T) Options
	op   string
	// first: mid fails at its first firing instead of at errAt.
	first bool
}

const errAt = 5

// blockSource pushes four ramp items a firing, so mid fires four times per
// steady iteration and its firing errAt lies inside one schedule entry —
// inside one VM entry on the sequential engine.
func blockSource() *ir.Filter {
	b := wfunc.NewKernel("Src", 0, 0, 4)
	n := b.Field("n", 0)
	i := b.Local("i")
	b.WorkBody(wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(4), wfunc.Push1(n), wfunc.SetF(n, wfunc.AddX(n, wfunc.C(1)))))
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeVoid, Out: ir.TypeFloat}
}

// errorEngine is one engine of the cross-engine error table.
type errorEngine struct {
	name string
	run  func(g *ir.Graph, s *sched.Schedule, opts Options) error
}

// TestCrossEngineErrors: a filter that fails at firing errAt surfaces as
// the identical *ExecError{Filter, Op, Iteration, Err} on every engine,
// the message the interpreter's — the sequential engine on either backend,
// the mapped engine under the identity plan, a task
// plan and a pipelined plan (whose stage cluster fires through the
// data-driven loop), and the dynamic engine — whether a native kernel
// panics, an IL kernel indexes out of bounds or pops past its window, a
// native kernel pops past its input, or the injector panics it under the
// fail policy. Each engine recovers a firing's panic once, where its loop
// runs, and attributes it to the node being fired. The IL rows fail in the
// middle of a VM entry of several firings (blockSource), and the
// sequential engine's Firings must count only the firings that completed.
func TestCrossEngineErrors(t *testing.T) {
	cases := []errorCase{
		{name: "native panic", op: "work", mid: func() *ir.Filter {
			calls := 0
			f := gainFilter("mid", 1)
			f.WorkFn = func(in, out wfunc.Tape, _ *wfunc.State) {
				if calls == errAt {
					panic("kaboom")
				}
				calls++
				out.Push(in.Pop())
			}
			return f
		}},
		{name: "IL index out of bounds", op: "work", src: blockSource, mid: func() *ir.Filter {
			b := wfunc.NewKernel("mid", 1, 1, 1)
			a := b.FieldArray("a", errAt)
			n := b.Field("n", 0)
			b.WorkBody(
				wfunc.Push1(wfunc.AddX(wfunc.PopE(), wfunc.FIdx(a, n))),
				wfunc.SetF(n, wfunc.AddX(n, wfunc.C(1))),
			)
			return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
		}},
		{name: "IL pop past the window", op: "pop", src: blockSource, mid: func() *ir.Filter {
			b := wfunc.NewKernel("mid", 1, 1, 1)
			n := b.Field("n", 0)
			i := b.Local("i")
			b.WorkBody(
				wfunc.IfS(wfunc.Bin(wfunc.Eq, n, wfunc.Ci(errAt)),
					wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(64), wfunc.Pop1())),
				wfunc.Push1(wfunc.PopE()),
				wfunc.SetF(n, wfunc.AddX(n, wfunc.C(1))),
			)
			return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
		}},
		{name: "native pop past input", op: "pop", mid: func() *ir.Filter {
			calls := 0
			f := gainFilter("mid", 1)
			f.WorkFn = func(in, out wfunc.Tape, _ *wfunc.State) {
				if calls == errAt {
					in.Pop()
				}
				calls++
				out.Push(in.Pop())
			}
			return f
		}},
		// Validate cannot see the overread, and the first firing's peek(4)
		// finds 4 items buffered. A row kernel's nest must guard against the
		// held end, not the ring's.
		{name: "IL row kernel reading past its declared peek", op: "peek", first: true, mid: overreadFIR},
		// The rows span's guard must check every row's window of F, and the
		// peek window against the held end.
		{name: "IL matrix reading past its declared peek", op: "peek", first: true, mid: func() *ir.Filter { return matrixFilter(3, false) }},
		{name: "IL matrix past its field's end", op: "work", src: blockSource, mid: func() *ir.Filter { return matrixFilter(4, true) }},
		// fuse's old FIR heads pop between their rows, which no rows span
		// takes: the generic row loop must fault where the interpreter does.
		{name: "IL fused head reading past its declared peek", op: "peek", first: true, mid: func() *ir.Filter { return headFilter(5, false) }},
		{name: "IL fused head's local array one cell short", op: "work", src: blockSource, mid: func() *ir.Filter { return headFilter(6, true) }},
		// Fusion may drop a dead trip only if it cannot fault.
		{name: "IL fused FIR's dead row reading past its declared peek", op: "peek", first: true, mid: deadRowOverread},
		{name: "injected panic under fail", op: "injected panic",
			mid: func() *ir.Filter { return gainFilter("mid", 2) },
			opts: func(t *testing.T) Options {
				return Options{Faults: mustPlan(t, fmt.Sprintf("panic:mid@%d", errAt))}
			}},
	}
	// src and mid share worker 0, snk runs on worker 1. The pipelined plan
	// clusters src with mid at stage 0, so mid sees exactly one item per
	// firing there too.
	assign := func(g *ir.Graph) []int {
		a := make([]int, len(g.Nodes))
		for _, n := range g.Nodes {
			if n.IsSink() {
				a[n.ID] = 1
			}
		}
		return a
	}
	engines := []errorEngine{
		{"sequential, interpreter", func(g *ir.Graph, s *sched.Schedule, opts Options) error {
			opts.Backend = BackendInterp
			e, err := NewFromGraphOpts(g, s, opts)
			if err != nil {
				return err
			}
			return e.Run(16)
		}},
		{"sequential", func(g *ir.Graph, s *sched.Schedule, opts Options) error {
			e, err := NewFromGraphOpts(g, s, opts)
			if err != nil {
				return err
			}
			err = e.Run(16)
			// A failed entry counts the firings that completed, no more.
			var completed int64
			for _, rt := range e.nodes {
				completed += rt.fired
			}
			if e.Firings != completed {
				return fmt.Errorf("Firings = %d after the failed entry, %d firings completed", e.Firings, completed)
			}
			return err
		}},
		{"sequential, one iteration a call", func(g *ir.Graph, s *sched.Schedule, opts Options) error {
			e, err := NewFromGraphOpts(g, s, opts)
			if err != nil {
				return err
			}
			if err := e.RunInit(); err != nil {
				return err
			}
			for range 16 {
				if err := e.RunSteady(1); err != nil {
					return err
				}
			}
			return nil
		}},
		{"parallel", func(g *ir.Graph, s *sched.Schedule, opts Options) error {
			me, err := NewParallelOpts(g, s, opts)
			if err != nil {
				return err
			}
			return me.Run(16)
		}},
		{"task", func(g *ir.Graph, s *sched.Schedule, opts Options) error {
			me, err := NewMappedOpts(g, s, assign(g), 2, opts)
			if err != nil {
				return err
			}
			return me.Run(16)
		}},
		{"task+swp", func(g *ir.Graph, s *sched.Schedule, opts Options) error {
			a := assign(g)
			var cluster []int
			for id, w := range a {
				if w == 0 {
					cluster = append(cluster, id)
				}
			}
			opts.Stages, opts.StageClusters = a, [][]int{cluster}
			me, err := NewMappedOpts(g, s, a, 2, opts)
			if err != nil {
				return err
			}
			return me.Run(16)
		}},
		{"dynamic", func(g *ir.Graph, _ *sched.Schedule, opts Options) error {
			d, err := NewFromGraphOpts(g, nil, opts)
			if err != nil {
				return err
			}
			// As many items ahead per edge as the widest peek window: mid
			// sees exactly its declared window, as under the schedule, so a
			// pop or peek past it underflows.
			d.ahead = 1
			for _, n := range g.Nodes {
				if n.Kind == ir.NodeFilter {
					d.ahead = max(d.ahead, n.Filter.Kernel.Peek)
				}
			}
			_, err = d.RunItems(64)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want *ExecError
			for _, eng := range engines {
				src := rampFilter("Src")
				if tc.src != nil {
					src = tc.src()
				}
				g, s, _ := faultPipelineFrom(t, src, tc.mid())
				var opts Options
				if tc.opts != nil {
					opts = tc.opts(t)
				}
				err := eng.run(g, s, opts)
				var ee *ExecError
				if !errors.As(err, &ee) {
					t.Fatalf("%s: err = %v, want an *ExecError", eng.name, err)
				}
				got := ExecError{Filter: ee.Filter, Op: ee.Op, Iteration: ee.Iteration, Err: errors.New(fmt.Sprint(ee.Err))}
				if want == nil {
					at := int64(errAt)
					if tc.first {
						at = 0
					}
					if faults.BaseName(got.Filter) != "mid" || got.Op != tc.op || got.Iteration != at {
						t.Fatalf("%s: %+v, want filter mid, op %q, firing %d", eng.name, got, tc.op, at)
					}
					want = &got
				} else if got.Filter != want.Filter || got.Op != want.Op || got.Iteration != want.Iteration || got.Err.Error() != want.Err.Error() {
					t.Fatalf("%s: %v, the interpreter reports %v", eng.name, &got, want)
				}
			}
		})
	}
}

// TestSupervisedSavePointIgnoresRingSize: a supervised firing's save point
// marks the sequential engine's rings by position instead of copying them,
// so what a firing under retry allocates — the state copy, the rewind —
// does not grow with ring capacity. Rings 16 times larger must not cost
// more per steady iteration.
func TestSupervisedSavePointIgnoresRingSize(t *testing.T) {
	var app apps.App
	for _, a := range apps.Suite() {
		if a.Name == "FMRadio" {
			app = a
		}
	}
	perIteration := func(scale int) uint64 {
		g, s := flattenApp(t, app)
		sh, err := NewShared(g, s, BackendVM)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sh.ringCap {
			sh.ringCap[i] *= scale
		}
		e, err := sh.NewEngine(Options{OnError: mustPolicies(t, "retry")})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(2); err != nil {
			t.Fatal(err)
		}
		const iters = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := e.RunSteady(iters); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / iters
	}
	small, large := perIteration(1), perIteration(16)
	t.Logf("a supervised steady iteration allocates %d bytes with 1x rings, %d with 16x", small, large)
	if large > small+small/10 {
		t.Fatalf("a supervised steady iteration allocates %d bytes with 16x rings against %d: the save point copies the rings", large, small)
	}
}
