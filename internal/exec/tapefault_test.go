package exec

import (
	"errors"
	"strings"
	"testing"

	"streamit/internal/fuse"
	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// lyingFilter declares the given push rate but emits only `actual` items
// per firing from its native body, so downstream batch accounting
// underflows at runtime.
func lyingFilter(name string, declaredPush, actual int) *ir.Filter {
	b := wfunc.NewKernel(name, 1, 1, declaredPush)
	body := []wfunc.Stmt{wfunc.Pop1()}
	for i := 0; i < declaredPush; i++ {
		body = append(body, wfunc.Push1(wfunc.C(0)))
	}
	b.WorkBody(body...)
	return &ir.Filter{
		Kernel: b.Build(),
		In:     ir.TypeFloat,
		Out:    ir.TypeFloat,
		WorkFn: func(in, out wfunc.Tape, state *wfunc.State) {
			v := in.Pop()
			for i := 0; i < actual; i++ {
				out.Push(v)
			}
		},
	}
}

// liarGraph is src -> liar -> snk, where liar declares a push rate of 2 and
// pushes 1.
func liarGraph(t *testing.T) (*ir.Graph, *sched.Schedule) {
	t.Helper()
	prog := &ir.Program{Name: "liar", Top: ir.Pipe("main",
		rampFilter("src"),
		lyingFilter("liar", 2, 1),
		nullSink("snk", 2),
	)}
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, s
}

// wantTakeFault asserts err is the producer-side rate check: a structured
// ExecError (op "take") naming the lying filter, not a raw slice panic and
// not a pop fault on whoever consumes from it.
func wantTakeFault(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("expected a take underflow error")
	}
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("want *ExecError, got %T: %v", err, err)
	}
	if ee.Op != "take" {
		t.Fatalf("want op %q, got %q (%v)", "take", ee.Op, ee)
	}
	if !strings.Contains(ee.Filter, "liar") {
		t.Fatalf("fault attributed to %q, want the lying filter (%v)", ee.Filter, ee)
	}
}

// TestTakeUnderflowIsExecError: a filter that pushes fewer items than its
// declared rate makes the parallel engine's batch Take underflow; that must
// surface as a structured ExecError (op "take"), not a raw slice panic.
func TestTakeUnderflowIsExecError(t *testing.T) {
	g, s := liarGraph(t)
	pe, err := NewParallelOpts(g, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantTakeFault(t, pe.Run(2))
}

// TestTakeUnderflowIsExecErrorPipelined: the same rate violation on a
// pipelined plan (one node per stage and per worker). The flush takes
// exactly what the schedule says was produced since the last one, so the
// shortfall is the liar's take fault here too, not an empty-queue pop on
// its consumer a stage later.
func TestTakeUnderflowIsExecErrorPipelined(t *testing.T) {
	g, s := liarGraph(t)
	topo, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	stages := make([]int, len(g.Nodes))
	for lv, n := range topo {
		stages[n.ID] = lv
	}
	me, err := NewMappedOpts(g, s, stages, len(g.Nodes), Options{Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	wantTakeFault(t, me.Run(2))
}

// TestRingTakeGuard: the direct panic payload of an underflowing Take
// converts into the same ExecError shape the engines report, and leaves
// the ring as it was.
func TestRingTakeGuard(t *testing.T) {
	c := wfunc.NewRing(0)
	c.Append([]float64{1, 2})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Take(5) on 2 items did not panic")
		}
		ee := asExecError("f", 7, r)
		if ee.Op != "take" || ee.Filter != "f" || ee.Iteration != 7 {
			t.Fatalf("unexpected error shape: %v", ee)
		}
		if c.Popped != 0 || c.Pushed != 2 {
			t.Fatalf("a refused take moved the ring to popped %d, pushed %d", c.Popped, c.Pushed)
		}
	}()
	c.Take(nil, 5)
}

// TestFusedNodeRunsOnSelectedBackend: a fused filter is an IL kernel like
// any other, so the engine runs it on the backend it was given — a
// vm.Machine under BackendVM, an interpreter frame under BackendInterp.
func TestFusedNodeRunsOnSelectedBackend(t *testing.T) {
	for _, backend := range []Backend{BackendVM, BackendInterp} {
		gain := func(name string) *ir.Filter {
			b := wfunc.NewKernel(name, 1, 1, 1)
			b.WorkBody(wfunc.Push1(wfunc.MulX(wfunc.PopE(), wfunc.C(2))))
			return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
		}
		fused, _, err := fuse.Chain("a+b", gain("a"), gain("b"))
		if err != nil {
			t.Fatal(err)
		}
		if fused.WorkFn != nil {
			t.Fatal("fused filter carries a native work function")
		}
		e := buildEngine(t, &ir.Program{Name: "fb", Top: ir.Pipe("main",
			rampFilter("src"), fused, nullSink("snk", 1))}, backend)
		if err := e.Run(4); err != nil {
			t.Fatal(err)
		}
		r := e.nodes[e.G.FilterNode[fused].ID].runner
		if r == nil {
			t.Fatalf("%s: fused node has no work runner", backend)
		}
		if onVM := r.mach != nil; onVM != (backend == BackendVM) {
			t.Fatalf("%s: fused node runs on the VM = %v", backend, onVM)
		}
	}
}
