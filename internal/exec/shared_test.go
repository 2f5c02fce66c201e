package exec

import (
	"bytes"
	"fmt"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// sharedTestGraph builds a small source -> gain -> sink graph directly in
// IR, flattened and scheduled.
func sharedTestGraph(t *testing.T) (*ir.Graph, *sched.Schedule) {
	t.Helper()
	src := wfunc.NewKernel("s", 0, 0, 1)
	n := src.Field("n", 0)
	src.WorkBody(wfunc.Push1(n), wfunc.SetF(n, wfunc.AddX(n, wfunc.C(1))))
	g1 := wfunc.NewKernel("g", 1, 1, 1)
	g1.WorkBody(wfunc.Push1(wfunc.MulX(wfunc.PopE(), wfunc.C(3))))
	snk := wfunc.NewKernel("k", 1, 1, 0)
	snk.WorkBody(wfunc.Pop1())
	p := &ir.Program{Name: "T", Top: ir.Pipe("TP",
		&ir.Filter{Kernel: src.Build(), In: ir.TypeVoid, Out: ir.TypeFloat},
		&ir.Filter{Kernel: g1.Build(), In: ir.TypeFloat, Out: ir.TypeFloat},
		&ir.Filter{Kernel: snk.Build(), In: ir.TypeFloat, Out: ir.TypeVoid})}
	g, err := ir.Flatten(p)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	return g, s
}

// TestSharedEnginesIndependent stamps several engines from one bundle and
// checks they run independently with identical, correct output.
func TestSharedEnginesIndependent(t *testing.T) {
	g, s := sharedTestGraph(t)
	sh, err := NewShared(g, s, BackendVM)
	if err != nil {
		t.Fatalf("NewShared: %v", err)
	}
	var outs [3][]float64
	engines := make([]*Engine, 3)
	for i := range engines {
		e, err := sh.NewEngine(Options{})
		if err != nil {
			t.Fatalf("NewEngine %d: %v", i, err)
		}
		i := i
		if err := e.TapSink("k#2", func(v float64) { outs[i] = append(outs[i], v) }); err != nil {
			t.Fatalf("TapSink: %v", err)
		}
		engines[i] = e
	}
	// Run them interleaved: per-engine state must not bleed.
	for step := 0; step < 10; step++ {
		for i, e := range engines {
			if step == 0 {
				if err := e.RunInit(); err != nil {
					t.Fatalf("engine %d init: %v", i, err)
				}
			}
			if err := e.RunSteady(1); err != nil {
				t.Fatalf("engine %d steady: %v", i, err)
			}
		}
	}
	for i, out := range outs {
		if len(out) != 10 {
			t.Fatalf("engine %d produced %d items, want 10", i, len(out))
		}
		for j, v := range out {
			if want := float64(j) * 3; v != want {
				t.Fatalf("engine %d item %d: got %v, want %v", i, j, v, want)
			}
		}
	}
}

// TestSharedMatchesDirectConstruction checks a bundle-stamped engine is
// indistinguishable from the classic construction path on both backends.
func TestSharedMatchesDirectConstruction(t *testing.T) {
	for _, backend := range []Backend{BackendVM, BackendInterp} {
		g, s := sharedTestGraph(t)
		sh, err := NewShared(g, s, backend)
		if err != nil {
			t.Fatalf("NewShared: %v", err)
		}
		a, err := sh.NewEngine(Options{})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		b, err := NewFromGraphOpts(g, s, Options{Backend: backend})
		if err != nil {
			t.Fatalf("NewFromGraphOpts: %v", err)
		}
		var av, bv []float64
		if err := a.TapSink("k#2", func(v float64) { av = append(av, v) }); err != nil {
			t.Fatal(err)
		}
		if err := b.TapSink("k#2", func(v float64) { bv = append(bv, v) }); err != nil {
			t.Fatal(err)
		}
		if err := a.Run(25); err != nil {
			t.Fatalf("%v run: %v", backend, err)
		}
		if err := b.Run(25); err != nil {
			t.Fatalf("%v run: %v", backend, err)
		}
		if len(av) != len(bv) {
			t.Fatalf("%v: %d vs %d items", backend, len(av), len(bv))
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("%v item %d: shared %v, direct %v", backend, i, av[i], bv[i])
			}
		}
	}
}

// TestRingSizedToHighWaterMark pins satellite behavior: tape rings are
// allocated at the schedule's observed high-water mark (rounded to the
// ring's power-of-two granularity), not at a doubled worst case — that is
// what keeps thousands of idle sessions cheap.
func TestRingSizedToHighWaterMark(t *testing.T) {
	g, s := sharedTestGraph(t)
	sh, err := NewShared(g, s, BackendVM)
	if err != nil {
		t.Fatalf("NewShared: %v", err)
	}
	e, err := sh.NewEngine(Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, edge := range g.Edges {
		hwm := s.BufCap[edge.ID]
		if n := len(edge.Initial); n > hwm {
			hwm = n
		}
		want := 4
		for want < hwm {
			want *= 2
		}
		if got := slots(e.chans[edge.ID]); got != want {
			t.Fatalf("edge %d: ring capacity %d, want %d (HWM %d)", edge.ID, got, want, hwm)
		}
	}
}

// TestSharedStampingIsCheap asserts that stamping an engine from an
// existing bundle allocates well under half of what the full build-a-bundle
// path costs — the allocation-light construction the server's session
// fan-out depends on.
func TestSharedStampingIsCheap(t *testing.T) {
	g, s := sharedTestGraph(t)
	sh, err := NewShared(g, s, BackendVM)
	if err != nil {
		t.Fatalf("NewShared: %v", err)
	}
	stamp := testing.AllocsPerRun(50, func() {
		if _, err := sh.NewEngine(Options{}); err != nil {
			t.Fatal(err)
		}
	})
	full := testing.AllocsPerRun(50, func() {
		if _, err := NewFromGraphOpts(g, s, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if stamp*2 >= full {
		t.Fatalf("stamping allocates %.0f objects vs %.0f for a full build; expected < half", stamp, full)
	}
}

// TestOverrideWorkRates checks the override hook and its failure mode: a
// well-behaved override replaces the work function exactly; one that
// violates the kernel's static rates surfaces a structured error instead
// of corrupting the run.
func TestOverrideWorkRates(t *testing.T) {
	g, s := sharedTestGraph(t)
	sh, err := NewShared(g, s, BackendVM)
	if err != nil {
		t.Fatalf("NewShared: %v", err)
	}
	e, err := sh.NewEngine(Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.OverrideWork("nope", func(in, out wfunc.Tape) {}); err == nil {
		t.Fatal("OverrideWork accepted an unknown filter")
	}
	var got []float64
	if err := e.OverrideWork("s#0", func(_, out wfunc.Tape) { out.Push(7) }); err != nil {
		t.Fatalf("OverrideWork: %v", err)
	}
	if err := e.TapSink("k#2", func(v float64) { got = append(got, v) }); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(5); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != 21 {
			t.Fatalf("item %d: got %v, want 21 (override 7 x gain 3)", i, v)
		}
	}
	// A popping override on a filter with no input tape must fault
	// structurally, not crash the process.
	e2, err := sh.NewEngine(Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e2.OverrideWork("g#1", func(in, out wfunc.Tape) {
		in.Pop()
		in.Pop() // second pop exceeds the single buffered item
		out.Push(0)
	}); err != nil {
		t.Fatalf("OverrideWork: %v", err)
	}
	err = e2.Run(1)
	if err == nil {
		t.Fatal("rate-violating override ran without error")
	}
	if _, ok := err.(*ExecError); !ok {
		t.Fatalf("rate violation produced %T (%v), want *ExecError", err, err)
	}
}

// TestTapAndProfileSurviveRestore: filters are bound to the engine's
// rings, and the per-firing hook (TapSink, profiling) reads them, so
// RestoreCheckpoint must refill the rings in place. An engine rolled back
// mid-run to an in-memory image — after speculating past the restore
// point, so the rings really change under the hook — must tap the same
// items and count the same operations as uninterrupted runs, and end in
// the same state: replay equals speculation, the paper's envisioned use of
// sdep.
func TestTapAndProfileSurviveRestore(t *testing.T) {
	const at, spec, total = 6, 3, 14
	build := func(t *testing.T, profile bool) (*Engine, *[]float64) {
		g, s := flattenApp(t, apps.App{Build: func() *ir.Program { return apps.FMRadio(4, 16) }})
		e, err := NewFromGraphOpts(g, s, Options{Profile: profile})
		if err != nil {
			t.Fatal(err)
		}
		got := &[]float64{}
		for _, n := range g.Nodes {
			if n.Kind == ir.NodeFilter && n.InEdge() != nil && n.OutEdge() == nil {
				if err := e.TapSink(n.Name, func(v float64) { *got = append(*got, v) }); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.RunInit(); err != nil {
			t.Fatal(err)
		}
		return e, got
	}
	steady := func(t *testing.T, e *Engine, n int) {
		t.Helper()
		if err := e.RunSteady(n); err != nil {
			t.Fatal(err)
		}
	}
	image := func(t *testing.T, e *Engine, it int64) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := e.WriteCheckpoint(&buf, it); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, profile := range []bool{false, true} {
		t.Run(fmt.Sprintf("RestoreCheckpoint/profile=%v", profile), func(t *testing.T) {
			// Uninterrupted reference, marking the tap stream at the restore
			// point and at the end of the speculated stretch.
			ref, refGot := build(t, profile)
			steady(t, ref, at)
			a := len(*refGot)
			steady(t, ref, spec)
			b := len(*refGot)
			steady(t, ref, total-at-spec)
			want := append(append([]float64(nil), (*refGot)[:b]...), (*refGot)[a:]...)

			e, got := build(t, profile)
			steady(t, e, at)
			img := image(t, e, at)
			steady(t, e, spec)
			if _, err := e.RestoreCheckpoint(img); err != nil {
				t.Fatal(err)
			}
			steady(t, e, total-at)

			if len(*got) != len(want) {
				t.Fatalf("tapped %d items, want %d", len(*got), len(want))
			}
			for i := range want {
				if (*got)[i] != want[i] {
					t.Fatalf("tapped item %d: %v, want %v", i, (*got)[i], want[i])
				}
			}
			if !bytes.Equal(image(t, e, total), image(t, ref, total)) {
				t.Fatal("final state differs from the uninterrupted run")
			}
			if profile {
				// The profiler is not rolled back, so the interrupted run has
				// counted total+spec iterations' worth of operations.
				steady(t, ref, spec)
				diffCounts(t, "RestoreCheckpoint", profileCounts(ref.Profile()), profileCounts(e.Profile()))
			}
		})
	}
}
