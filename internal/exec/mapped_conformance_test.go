package exec

import (
	"fmt"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/partition"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// collector replaces a sink filter with a native filter of the same input
// rates that records every popped item, so runs on different engines (and
// differently-rewritten graphs) can be compared by exact output values.
func collector(f *ir.Filter) (*ir.Filter, *[]float64) {
	k := f.Kernel
	peek := k.Peek
	if peek < k.Pop {
		peek = k.Pop
	}
	b := wfunc.NewKernel(k.Name, peek, k.Pop, 0)
	b.Dynamic() // stub body; behaviour is the native closure
	b.WorkBody()
	kc := b.Build()
	kc.Dynamic = false
	kc.Peek, kc.Pop, kc.Push = peek, k.Pop, 0
	got := &[]float64{}
	return &ir.Filter{
		Kernel: kc,
		In:     f.In,
		Out:    ir.TypeVoid,
		WorkFn: func(in, out wfunc.Tape, _ *wfunc.State) {
			for i := 0; i < kc.Pop; i++ {
				*got = append(*got, in.Pop())
			}
		},
	}, got
}

// swapSinks replaces every static sink filter in the tree with a
// collector, returning the collectors' filters and output slices in a
// deterministic walk order.
func swapSinks(s ir.Stream, fs *[]*ir.Filter, outs *[]*[]float64) ir.Stream {
	switch s := s.(type) {
	case *ir.Filter:
		if s.Kernel.Push == 0 && s.Kernel.Pop > 0 && !s.Kernel.Dynamic {
			c, got := collector(s)
			*fs = append(*fs, c)
			*outs = append(*outs, got)
			return c
		}
		return s
	case *ir.Pipeline:
		for i, c := range s.Children {
			s.Children[i] = swapSinks(c, fs, outs)
		}
		return s
	case *ir.SplitJoin:
		for i, c := range s.Children {
			s.Children[i] = swapSinks(c, fs, outs)
		}
		return s
	case *ir.FeedbackLoop:
		s.Body = swapSinks(s.Body, fs, outs)
		if s.Loop != nil {
			s.Loop = swapSinks(s.Loop, fs, outs)
		}
		return s
	}
	return s
}

// sinkItemsPerIter returns how many items each collector receives per
// steady iteration of the graph it is flattened into.
func sinkItemsPerIter(t *testing.T, g *ir.Graph, s *sched.Schedule, fs []*ir.Filter) []int {
	t.Helper()
	out := make([]int, len(fs))
	for i, f := range fs {
		n := g.FilterNode[f]
		if n == nil {
			t.Fatalf("collector %s missing from flat graph", f.Kernel.Name)
		}
		out[i] = s.Reps[n.ID] * f.Kernel.Pop
	}
	return out
}

// TestMappedConformance: the mapped engine — under every host-executable
// strategy, on both work-function backends — produces bit-identical sink
// streams to the sequential engine on the full application suite. The
// rewritten graph's steady iteration covers an integer multiple of the
// original's, so the sequential reference runs scaled-up iterations.
func TestMappedConformance(t *testing.T) {
	strategies := []partition.Strategy{partition.StratTask, partition.StratFineData,
		partition.StratCoarseData, partition.StratSWP, partition.StratCombined}
	backends := []Backend{BackendVM, BackendInterp}
	for _, app := range apps.Suite() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			for _, strat := range strategies {
				for _, backend := range backends {
					t.Run(fmt.Sprintf("%s/%v", strat, backend), func(t *testing.T) {
						runMappedConformance(t, app, strat, backend)
					})
				}
			}
		})
	}
}

func runMappedConformance(t *testing.T, app apps.App, strat partition.Strategy, backend Backend) {
	t.Helper()
	// Mapped run on the rewritten program.
	progM := app.Build()
	var mapFs []*ir.Filter
	var mapOuts []*[]float64
	progM.Top = swapSinks(progM.Top, &mapFs, &mapOuts)
	gM, err := ir.Flatten(progM)
	if err != nil {
		t.Fatal(err)
	}
	sM, err := sched.Compute(gM)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildExecPlan(progM, gM, sM, partition.ExecPlanOptions{Strategy: strat, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ir.Flatten(plan.Program)
	if err != nil {
		t.Fatalf("flattening rewritten program: %v", err)
	}
	s2, err := sched.Compute(g2)
	if err != nil {
		t.Fatalf("scheduling rewritten program: %v", err)
	}
	mopts := Options{Backend: backend}
	if plan.Pipelined {
		st, err := partition.PipelineStages(g2)
		if err != nil {
			t.Fatalf("staging rewritten program: %v", err)
		}
		mopts.Stages = st.Levels
		mopts.StageClusters = st.Clusters
	}
	me, err := NewMappedOpts(g2, s2, plan.Assign(g2, s2), plan.Workers, mopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := me.Run(confIters); err != nil {
		t.Fatalf("mapped run: %v", err)
	}

	// Sequential reference, scaled so both runs see the same item count.
	progR := app.Build()
	var refFs []*ir.Filter
	var refOuts []*[]float64
	progR.Top = swapSinks(progR.Top, &refFs, &refOuts)
	gR, err := ir.Flatten(progR)
	if err != nil {
		t.Fatal(err)
	}
	sR, err := sched.Compute(gR)
	if err != nil {
		t.Fatal(err)
	}
	if len(refFs) != len(mapFs) {
		t.Fatalf("sink walks diverged: %d vs %d collectors", len(refFs), len(mapFs))
	}
	perRef := sinkItemsPerIter(t, gR, sR, refFs)
	perMap := sinkItemsPerIter(t, g2, s2, mapFs)
	scale := 0
	for i := range perRef {
		if perRef[i] == 0 || perMap[i]%perRef[i] != 0 {
			t.Fatalf("sink %d: rewritten per-iteration items %d not a multiple of original %d", i, perMap[i], perRef[i])
		}
		c := perMap[i] / perRef[i]
		if scale == 0 {
			scale = c
		} else if c != scale {
			t.Fatalf("inconsistent steady scaling: sink 0 is %dx, sink %d is %dx", scale, i, c)
		}
	}
	ref, err := NewFromGraphBackend(gR, sR, backend)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(confIters * scale); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	for i := range refOuts {
		rv, mv := *refOuts[i], *mapOuts[i]
		if len(rv) != len(mv) {
			t.Fatalf("sink %d (%s): %d reference items vs %d mapped", i, refFs[i].Kernel.Name, len(rv), len(mv))
		}
		for j := range rv {
			if rv[j] != mv[j] {
				t.Fatalf("sink %d (%s) item %d: reference %v, mapped %v (strategy %s, fused %d, replicas %d)",
					i, refFs[i].Kernel.Name, j, rv[j], mv[j], strat, plan.Fused, plan.Replicas)
			}
		}
	}

	// Per-node firing counts, per-edge pushed/popped counters, filter
	// states, and channel residue must all match a sequential engine over
	// the same rewritten graph — asserted through the engines' checkpoint
	// images, which serialize exactly that state. (This run appends to the
	// mapped collectors again; outputs were compared above.)
	seq2, err := NewFromGraphBackend(g2, s2, backend)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq2.Run(confIters); err != nil {
		t.Fatalf("sequential counter reference: %v", err)
	}
	var wantImg, gotImg sliceBuffer
	if err := seq2.WriteCheckpoint(&wantImg, confIters); err != nil {
		t.Fatal(err)
	}
	if err := me.WriteCheckpoint(&gotImg, confIters); err != nil {
		t.Fatal(err)
	}
	if string(wantImg) != string(gotImg) {
		t.Fatalf("mapped engine state diverged from sequential over the rewritten graph (strategy %s): %d- vs %d-byte images differ",
			strat, len(wantImg), len(gotImg))
	}
}

// TestMappedInitEngineRunsOnSelectedBackend: the engine's Shared — which
// the scratch engine running the init schedule (the firings that fill the
// peek windows) is stamped from, and which the steady state's work runners
// are built from — uses the mapped engine's backend, so -backend interp
// -map … runs the reference interpreter from the first firing on.
func TestMappedInitEngineRunsOnSelectedBackend(t *testing.T) {
	mb := buildMapped(t, func() *ir.Program { return apps.FMRadio(2, 8) }, partition.StratCoarseData)
	for _, backend := range []Backend{BackendVM, BackendInterp} {
		me := mb.engine(t, Options{Backend: backend})
		if err := me.compile(); err != nil {
			t.Fatal(err)
		}
		seq, err := me.shared.NewEngine(Options{})
		if err != nil {
			t.Fatal(err)
		}
		kernels := 0
		for _, nodes := range [][]*nodeRT{seq.nodes, me.nodes} {
			for _, rt := range nodes {
				if rt.runner == nil || rt.node.Filter.WorkFn != nil {
					continue
				}
				kernels++
				if onVM := rt.runner.mach != nil; onVM != (backend == BackendVM) {
					t.Fatalf("%s: %s runs on the VM = %v", backend, rt.node.Name, onVM)
				}
			}
		}
		if kernels == 0 {
			t.Fatalf("%s: no IL kernels to check", backend)
		}
	}
}
