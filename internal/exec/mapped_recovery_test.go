package exec

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/partition"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// mappedBuild is one rewritten application instance: the flat rewritten
// graph and schedule a mapped engine runs, the plan that produced them, its
// worker assignment, and the collector slices its sinks were swapped for.
// Engines built over the same mappedBuild share the collectors, so an
// interrupted run plus its resumed continuation append to the same output
// stream.
type mappedBuild struct {
	g2      *ir.Graph
	s2      *sched.Schedule
	plan    *partition.ExecPlan
	assign  []int
	workers int
	outs    []*[]float64
	stages  *partition.StagePlan // non-nil for pipelined strategies
}

// packer is the planner every binary attaches (core.MappedEngineOpts):
// partition's packer over the plan the graph came from. A hand-built graph
// has no rewrite to account for, so the empty plan packs it.
func packer(plan *partition.ExecPlan, g *ir.Graph, s *sched.Schedule) func(int) ([]int, error) {
	return func(workers int) ([]int, error) {
		return plan.Pack(g, s, partition.Topology{Shards: workers, PerShard: 1})
	}
}

func buildMapped(tb testing.TB, build func() *ir.Program, strat partition.Strategy) *mappedBuild {
	tb.Helper()
	prog := build()
	var fs []*ir.Filter
	var outs []*[]float64
	prog.Top = swapSinks(prog.Top, &fs, &outs)
	mb := planMapped(tb, prog, strat)
	mb.outs = outs
	return mb
}

// planMapped is buildMapped over the program as given, its own sinks kept.
func planMapped(tb testing.TB, prog *ir.Program, strat partition.Strategy) *mappedBuild {
	tb.Helper()
	g, err := ir.Flatten(prog)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := partition.BuildExecPlan(prog, g, s, partition.ExecPlanOptions{Strategy: strat, Workers: 4})
	if err != nil {
		tb.Fatal(err)
	}
	g2, err := ir.Flatten(plan.Program)
	if err != nil {
		tb.Fatalf("flattening rewritten program: %v", err)
	}
	s2, err := sched.Compute(g2)
	if err != nil {
		tb.Fatalf("scheduling rewritten program: %v", err)
	}
	mb := &mappedBuild{g2: g2, s2: s2, plan: plan, assign: plan.Assign(g2, s2), workers: plan.Workers}
	if plan.Pipelined {
		st, err := partition.PipelineStages(g2)
		if err != nil {
			tb.Fatalf("staging rewritten program: %v", err)
		}
		mb.stages = st
	}
	return mb
}

func (mb *mappedBuild) engine(tb testing.TB, opts Options) *MappedEngine {
	tb.Helper()
	if mb.stages != nil {
		opts.Stages = mb.stages.Levels
		opts.StageClusters = mb.stages.Clusters
	}
	if opts.Replan == nil && mb.plan != nil {
		opts.Replan = packer(mb.plan, mb.g2, mb.s2)
	}
	me, err := NewMappedOpts(mb.g2, mb.s2, mb.assign, mb.workers, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return me
}

func mappedCkptBytes(tb testing.TB, me *MappedEngine, iteration int64) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := me.WriteCheckpoint(&buf, iteration); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func compareOuts(t *testing.T, want, got []*[]float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: sink walks diverged: %d vs %d collectors", label, len(want), len(got))
	}
	for i := range want {
		wv, gv := *want[i], *got[i]
		if len(wv) != len(gv) {
			t.Fatalf("%s: sink %d: %d items vs %d", label, i, len(wv), len(gv))
		}
		for j := range wv {
			if wv[j] != gv[j] {
				t.Fatalf("%s: sink %d item %d: %v vs %v", label, i, j, wv[j], gv[j])
			}
		}
	}
}

// TestMappedCheckpointConformance: on every app, strategy, and backend, a
// mapped run checkpointed at the coordinated barrier and resumed in a
// fresh mapped engine reaches a final state byte-identical to an
// uninterrupted run — and its sink output streams are bit-identical too.
// Byte equality of the final image covers every queue's contents and
// counters, every filter field, and every firing count.
func TestMappedCheckpointConformance(t *testing.T) {
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
						runMappedCheckpointConformance(t, app, strat, backend)
					})
				}
			}
		})
	}
}

func runMappedCheckpointConformance(t *testing.T, app apps.App, strat partition.Strategy, backend Backend) {
	t.Helper()
	const iters, k = 4, 2

	// Uninterrupted reference run.
	refB := buildMapped(t, app.Build, strat)
	ref := refB.engine(t, Options{Backend: backend})
	if err := ref.Run(iters); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := mappedCkptBytes(t, ref, iters)

	// Interrupted run: checkpoint at the barrier after k iterations, then
	// resume the image in a fresh engine over the same build (so both
	// halves append to the same collectors).
	intB := buildMapped(t, app.Build, strat)
	first := intB.engine(t, Options{Backend: backend})
	if err := first.Run(k); err != nil {
		t.Fatalf("interrupted run: %v", err)
	}
	img := mappedCkptBytes(t, first, k)
	resumed := intB.engine(t, Options{Backend: backend})
	if err := resumed.RunFromCheckpoint(img, iters); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := mappedCkptBytes(t, resumed, iters); !bytes.Equal(want, got) {
		t.Fatalf("resumed final state differs from uninterrupted run (%d vs %d bytes)", len(want), len(got))
	}
	compareOuts(t, refB.outs, intB.outs, "resumed output")
}

// TestMappedCheckpointCrossEngine: mapped and sequential checkpoints over
// the same rewritten graph are byte-interchangeable — a mapped image
// restores into a sequential engine (and vice versa), and both resumed
// runs land bit-identical to an uninterrupted reference.
func TestMappedCheckpointCrossEngine(t *testing.T) {
	const iters, k = 4, 2
	build := func() *ir.Program { return apps.FMRadio(4, 16) }
	const strat = partition.StratCoarseData

	// Uninterrupted sequential reference over the rewritten graph.
	refB := buildMapped(t, build, strat)
	ref, err := NewFromGraphBackend(refB.g2, refB.s2, BackendVM)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(iters); err != nil {
		t.Fatal(err)
	}
	want := checkpointBytes(t, ref, iters)

	// Mapped image -> sequential engine.
	mb := buildMapped(t, build, strat)
	me := mb.engine(t, Options{})
	if err := me.Run(k); err != nil {
		t.Fatal(err)
	}
	img := mappedCkptBytes(t, me, k)
	sb := buildMapped(t, build, strat)
	se, err := NewFromGraphBackend(sb.g2, sb.s2, BackendVM)
	if err != nil {
		t.Fatal(err)
	}
	if err := se.RunFromCheckpoint(img, iters); err != nil {
		t.Fatalf("sequential resume of mapped image: %v", err)
	}
	if got := checkpointBytes(t, se, iters); !bytes.Equal(want, got) {
		t.Fatal("sequential resume of a mapped checkpoint diverged from the uninterrupted run")
	}

	// Sequential image -> mapped engine.
	qb := buildMapped(t, build, strat)
	qe, err := NewFromGraphBackend(qb.g2, qb.s2, BackendVM)
	if err != nil {
		t.Fatal(err)
	}
	if err := qe.RunInit(); err != nil {
		t.Fatal(err)
	}
	if err := qe.RunSteady(k); err != nil {
		t.Fatal(err)
	}
	simg := checkpointBytes(t, qe, k)
	wb := buildMapped(t, build, strat)
	we := wb.engine(t, Options{})
	if err := we.RunFromCheckpoint(simg, iters); err != nil {
		t.Fatalf("mapped resume of sequential image: %v", err)
	}
	if got := mappedCkptBytes(t, we, iters); !bytes.Equal(want, got) {
		t.Fatal("mapped resume of a sequential checkpoint diverged from the uninterrupted run")
	}
}

// TestMappedCheckpointPartialBlocks: lockstep runs in blocks of StageBatch
// iterations, cut at every barrier, so run lengths and checkpoint intervals
// that leave partial blocks must not move a bit. Over the suite's task+data
// plans, runs of 1, 3, 8 and 13 iterations, and 13-iteration runs with a
// checkpoint every 1, 3, 8 and 13, give sink streams bit-identical to, and
// final images byte-equal with, the sequential engine's over the same graph.
func TestMappedCheckpointPartialBlocks(t *testing.T) {
	lengths := []int{1, 3, 8, 13}
	const total = 13
	for _, app := range apps.Suite() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			// One sequential run, imaged at every length; a shorter run's
			// sink stream is a prefix of the longer one's.
			sb := buildMapped(t, app.Build, partition.StratCoarseData)
			se, err := NewFromGraphBackend(sb.g2, sb.s2, BackendVM)
			if err != nil {
				t.Fatal(err)
			}
			if err := se.RunInit(); err != nil {
				t.Fatal(err)
			}
			imgs := map[int][]byte{}
			prefix := map[int][]int{}
			done := 0
			for _, n := range lengths {
				if err := se.RunSteady(n - done); err != nil {
					t.Fatal(err)
				}
				done = n
				imgs[n], prefix[n] = checkpointBytes(t, se, int64(n)), sinkLens(sb.outs)
			}
			stream := since(sb.outs, make([]int, len(sb.outs)))

			// One mapped engine: every Run restarts the stream.
			mb := buildMapped(t, app.Build, partition.StratCoarseData)
			me := mb.engine(t, Options{})
			run := func(n, every int) {
				label := fmt.Sprintf("%d iterations, checkpoint every %d", n, every)
				me.CheckpointEvery = every
				from := sinkLens(mb.outs)
				if err := me.Run(n); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := make([][]float64, len(stream))
				for i := range stream {
					want[i] = stream[i][:prefix[n][i]]
				}
				tailIs(t, want, mb.outs, from, label)
				if !bytes.Equal(mappedCkptBytes(t, me, int64(n)), imgs[n]) {
					t.Fatalf("%s: final image differs from the sequential engine's", label)
				}
			}
			for _, n := range lengths {
				run(n, 0)
				run(total, n)
			}
		})
	}
}

// midTarget picks the first mid-graph filter (one with both input and
// output edges) of a rewritten graph and a firing index that lands in the
// second steady iteration, so injected faults hit a filter whose failure
// propagates both up- and downstream.
func midTarget(t *testing.T, g *ir.Graph, s *sched.Schedule) (string, int64) {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Kind == ir.NodeFilter && len(n.In) > 0 && len(n.Out) > 0 {
			return n.Name, int64(s.InitReps[n.ID] + s.Reps[n.ID])
		}
	}
	t.Fatal("no mid-graph filter in rewritten graph")
	return "", 0
}

// TestMappedFaultPolicyMatrix: every fault kind under every recovery
// policy produces sink output bit-identical to the supervised sequential
// engine over the same rewritten graph — the mapped engine's rollback,
// skip-with-zeros, and state-reset semantics match the reference engine
// exactly, worker parallelism notwithstanding.
func TestMappedFaultPolicyMatrix(t *testing.T) {
	kinds := []string{"panic", "stall", "corrupt"}
	policies := []string{"retry", "skip", "restart"}
	for _, app := range apps.Suite()[:3] {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			for _, kind := range kinds {
				for _, policy := range policies {
					t.Run(kind+"/"+policy, func(t *testing.T) {
						runMappedFaultPolicy(t, app, partition.StratTask, kind, policy)
					})
				}
			}
		})
	}
}

// TestMappedSWPFaultPolicyMatrix: the same fault-kind × recovery-policy
// matrix on pipelined plans — the injected filter faults land mid-segment,
// where stages are skewed, and every policy must still land bit-identical
// to the supervised sequential engine over the same rewritten graph.
func TestMappedSWPFaultPolicyMatrix(t *testing.T) {
	kinds := []string{"panic", "stall", "corrupt"}
	policies := []string{"retry", "skip", "restart"}
	for _, app := range apps.Suite()[:2] {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			for _, kind := range kinds {
				for _, policy := range policies {
					t.Run(kind+"/"+policy, func(t *testing.T) {
						runMappedFaultPolicy(t, app, partition.StratSWP, kind, policy)
					})
				}
			}
		})
	}
}

func runMappedFaultPolicy(t *testing.T, app apps.App, strat partition.Strategy, kind, policy string) {
	t.Helper()
	const iters = 4
	mb := buildMapped(t, app.Build, strat)
	target, firing := midTarget(t, mb.g2, mb.s2)
	spec := fmt.Sprintf("%s:%s@%d", kind, target, firing)

	me := mb.engine(t, Options{Faults: mustPlan(t, spec), OnError: mustPolicies(t, policy)})
	if err := me.Run(iters); err != nil {
		t.Fatalf("mapped run under %s: %v", spec, err)
	}
	var injected int64
	for _, st := range me.Degraded() {
		injected += st.Injected
	}
	if injected == 0 {
		t.Fatalf("mapped run never injected %s", spec)
	}

	sb := buildMapped(t, app.Build, strat)
	se, err := NewFromGraphOpts(sb.g2, sb.s2, Options{Faults: mustPlan(t, spec), OnError: mustPolicies(t, policy)})
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Run(iters); err != nil {
		t.Fatalf("sequential run under %s: %v", spec, err)
	}
	compareOuts(t, sb.outs, mb.outs, kind+"/"+policy)
}

// TestMappedWorkerCrashRecovery: a worker crash mid-run rolls back to the
// last coordinated checkpoint, re-plans the dead worker's partition onto
// the survivors, and completes with output bit-identical to a clean
// sequential run. The degradation is visible in the worker stats, the
// supervision report, and the obs trace.
func TestMappedWorkerCrashRecovery(t *testing.T) {
	const iters = 8
	clean, _, err := runSeqFault(t, gainFilter("Double", 2), iters, Options{})
	if err != nil {
		t.Fatal(err)
	}

	g, s, got := faultPipeline(t, gainFilter("Double", 2))
	rec := obs.NewRecorder()
	assign := make([]int, len(g.Nodes))
	for i := range assign {
		assign[i] = i % 3
	}
	me, err := NewMappedOpts(g, s, assign, 3, Options{
		Faults: mustPlan(t, "crash:worker1@2"),
		Trace:  rec,
		Replan: packer(&partition.ExecPlan{}, g, s),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := me.Run(iters); err != nil {
		t.Fatalf("crashed run did not recover: %v", err)
	}

	if len(*got) != len(clean) {
		t.Fatalf("recovered run produced %d items, clean run %d", len(*got), len(clean))
	}
	for i := range clean {
		if (*got)[i] != clean[i] {
			t.Fatalf("item %d differs after recovery: %v vs %v", i, (*got)[i], clean[i])
		}
	}
	if me.Workers != 2 {
		t.Errorf("engine degraded to %d workers, want 2", me.Workers)
	}
	st := me.Degraded()["worker1"]
	if st.Injected != 1 || st.Crashes != 1 {
		t.Errorf("worker1 stats = %+v, want 1 injection and 1 crash", st)
	}
	rep := me.SupervisionReport()
	if !strings.Contains(rep, "crashes=1") {
		t.Errorf("supervision report does not count the crash:\n%s", rep)
	}
	var sawFault, sawRecovery, sawCheckpoint bool
	for _, ev := range rec.Events() {
		switch {
		case ev.Cat == "fault" && ev.Name == "fault: crash":
			sawFault = true
		case ev.Cat == "recovery":
			sawRecovery = true
		case ev.Cat == "checkpoint":
			sawCheckpoint = true
		}
	}
	if !sawFault || !sawRecovery || !sawCheckpoint {
		t.Errorf("trace missing events: fault=%v recovery=%v checkpoint=%v", sawFault, sawRecovery, sawCheckpoint)
	}
}

// TestMappedWorkerCrashMidBlock: a scheduled worker crash cuts the lockstep
// block it falls in, so it meets the top of its own iteration. With a
// checkpoint every 8 iterations, a crash at iteration 5 finds the crashed
// worker's filter five iterations in, the run rolls back to the barrier at
// iteration 0 and recovers byte-equal to a clean sequential run; on a
// single worker, with nowhere to recover onto, the crash is reported at
// iteration 5.
func TestMappedWorkerCrashMidBlock(t *testing.T) {
	const iters, every, crashAt = 16, 8, 5
	clean, seq, err := runSeqFault(t, gainFilter("Double", 2), iters, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := checkpointBytes(t, seq, iters)

	g, s, got := faultPipeline(t, gainFilter("Double", 2))
	assign := make([]int, len(g.Nodes))
	for i := range assign {
		assign[i] = i % 3
	}
	mid := g.Nodes[1] // Src, Double, snk: Double runs on worker 1
	pack := packer(&partition.ExecPlan{}, g, s)
	var me *MappedEngine
	crashedAt := int64(-1)
	me, err = NewMappedOpts(g, s, assign, 3, Options{Faults: mustPlan(t, fmt.Sprintf("crash:worker1@%d", crashAt)),
		CheckpointEvery: every,
		Replan: func(workers int) ([]int, error) {
			// The planner runs before the rollback: the crashed worker's
			// filter still stands where the crash found it.
			crashedAt = (me.nodes[mid.ID].fired - me.initFired[mid.ID]) / int64(s.Reps[mid.ID])
			return pack(workers)
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := me.Run(iters); err != nil {
		t.Fatalf("crashed run did not recover: %v", err)
	}
	if crashedAt != crashAt {
		t.Errorf("the crash found %s %d iterations in, want %d", mid.Name, crashedAt, crashAt)
	}
	// The collector is outside the image: what the sink took before the
	// crash stays in it, and the replay from iteration 0 follows.
	if len(*got) < len(clean) || !slices.Equal((*got)[len(*got)-len(clean):], clean) {
		t.Fatalf("recovered run produced %v, want it to end with the clean run's %v", *got, clean)
	}
	if img := mappedCkptBytes(t, me, iters); !bytes.Equal(img, want) {
		t.Fatal("recovered run's final image differs from the clean sequential run's")
	}

	g, s, _ = faultPipeline(t, gainFilter("Double", 2))
	solo, err := NewMappedOpts(g, s, make([]int, len(g.Nodes)), 1, Options{
		Faults:          mustPlan(t, fmt.Sprintf("crash:worker0@%d", crashAt)),
		CheckpointEvery: every, Replan: packer(&partition.ExecPlan{}, g, s)})
	if err != nil {
		t.Fatal(err)
	}
	var ee *ExecError
	if err := solo.Run(iters); !errors.As(err, &ee) || ee.Op != "crash" || ee.Iteration != crashAt {
		t.Fatalf("single-worker crash: err = %v, want a crash at iteration %d", err, crashAt)
	}
}

// TestMappedWorkerCrashReplanHook: the engine does not pack. Crash recovery
// runs on the planner's answer, an answer that breaks an engine invariant
// fails the run with an error naming the rule, and a configuration that
// re-plans is refused at construction when no planner is attached.
func TestMappedWorkerCrashReplanHook(t *testing.T) {
	const iters = 6
	clean, _, err := runSeqFault(t, gainFilter("Double", 2), iters, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, s, got := faultPipeline(t, gainFilter("Double", 2))
	assign := make([]int, len(g.Nodes))
	for i := range assign {
		assign[i] = i % 3
	}
	replanned := 0
	var answer []int
	me, err := NewMappedOpts(g, s, assign, 3, Options{Faults: mustPlan(t, "crash:worker2@1"),
		Replan: func(workers int) ([]int, error) {
			replanned++
			answer = make([]int, len(g.Nodes))
			for i := range answer {
				answer[i] = (i + 1) % workers
			}
			return answer, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := me.Run(iters); err != nil {
		t.Fatalf("crashed run did not recover: %v", err)
	}
	if replanned != 1 {
		t.Errorf("planner called %d times, want 1", replanned)
	}
	if me.Workers != 2 || !slices.Equal(me.Assign, answer) {
		t.Errorf("engine runs %v on %d workers, planner answered %v", me.Assign, me.Workers, answer)
	}
	if !slices.Equal(*got, clean) {
		t.Fatalf("replanned recovery produced %v, clean run %v", *got, clean)
	}

	for _, bad := range []struct {
		name   string
		answer func(workers int) ([]int, error)
		want   string
	}{
		{"short", func(int) ([]int, error) { return make([]int, len(g.Nodes)-1), nil }, "assignment covers"},
		{"out of range", func(workers int) ([]int, error) {
			a := make([]int, len(g.Nodes))
			a[0] = workers
			return a, nil
		}, "assigned to worker 2 of 2"},
		{"planner error", func(int) ([]int, error) { return nil, errors.New("no plan today") }, "no plan today"},
	} {
		g, s, _ := faultPipeline(t, gainFilter("Double", 2))
		me, err := NewMappedOpts(g, s, assign, 3, Options{Faults: mustPlan(t, "crash:worker2@1"),
			Replan: bad.answer})
		if err != nil {
			t.Fatal(err)
		}
		if err := me.Run(iters); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s answer: err = %v, want one naming %q", bad.name, err, bad.want)
		}
	}

	// On a pipelined plan the stage clusters are part of the contract.
	rb := buildMapped(t, func() *ir.Program { return apps.Reverb(4, 0.5) }, partition.StratSWP)
	loop := rb.stages.Clusters[0]
	split := rb.engine(t, Options{Faults: mustPlan(t, fmt.Sprintf("crash:worker%d@2", rb.assign[loop[0]])),
		Replan: func(int) ([]int, error) {
			a := make([]int, len(rb.g2.Nodes))
			a[loop[0]] = 1
			return a, nil
		}})
	if err := split.Run(iters); err == nil || !strings.Contains(err.Error(), "stage cluster 0 splits across workers") {
		t.Errorf("cluster-splitting answer: err = %v, want one naming the split cluster", err)
	}

	if _, err := NewMappedOpts(g, s, assign, 3, Options{Faults: mustPlan(t, "crash:worker2@1")}); err == nil || !strings.Contains(err.Error(), "Options.Replan") {
		t.Errorf("crash fault without a planner: err = %v, want a construction error naming Options.Replan", err)
	}
	// Worker faults that never re-plan build as before.
	if _, err := NewMappedOpts(g, s, assign, 3, Options{Faults: mustPlan(t, "slow:worker0@1;stall:worker1@9")}); err != nil {
		t.Errorf("slow/stall faults need no planner: %v", err)
	}
}

// TestMappedWorkerSlowFault: a slow fault completes the run with correct
// output and shows up in the degradation stats — graceful degradation,
// not failure.
func TestMappedWorkerSlowFault(t *testing.T) {
	const iters = 6
	clean, _, err := runSeqFault(t, gainFilter("Double", 2), iters, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, s, got := faultPipeline(t, gainFilter("Double", 2))
	assign := make([]int, len(g.Nodes))
	for i := range assign {
		assign[i] = i % 3
	}
	me, err := NewMappedOpts(g, s, assign, 3, Options{Faults: mustPlan(t, "slow:worker0@1")})
	if err != nil {
		t.Fatal(err)
	}
	if err := me.Run(iters); err != nil {
		t.Fatalf("slowed run failed: %v", err)
	}
	for i := range clean {
		if (*got)[i] != clean[i] {
			t.Fatalf("item %d differs under slow fault: %v vs %v", i, (*got)[i], clean[i])
		}
	}
	st := me.Degraded()["worker0"]
	if st.Injected != 1 || st.Slowed != 1 {
		t.Errorf("worker0 stats = %+v, want 1 injection and 1 slowdown", st)
	}
	if rep := me.SupervisionReport(); !strings.Contains(rep, "slowed=1") {
		t.Errorf("supervision report does not count the slowdown:\n%s", rep)
	}
}

// TestMappedWorkerStallWatchdog: an injected worker stall under the
// default fail policy wedges the engine; the watchdog aborts with a
// *DeadlockError that attributes each blocked filter to its worker.
func TestMappedWorkerStallWatchdog(t *testing.T) {
	g, s, _ := faultPipeline(t, gainFilter("Double", 2))
	assign := make([]int, len(g.Nodes))
	for i := range assign {
		assign[i] = i % 3
	}
	me, err := NewMappedOpts(g, s, assign, 3, Options{
		Faults:   mustPlan(t, "stall:worker1@1"),
		Watchdog: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = me.Run(64)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want a *DeadlockError", err)
	}
	if de.Engine != "mapped" {
		t.Errorf("deadlock engine = %q, want mapped", de.Engine)
	}
	if !strings.Contains(err.Error(), "worker 1") {
		t.Errorf("deadlock report does not attribute the stall to worker 1:\n%v", err)
	}
}

// TestMappedStallWatchdogShowsLinkWaits pins what the watchdog reads off
// the cross-worker links' slow path. Src, Double and the sink each run on
// their own worker over one-slot links, and worker 1 stalls: the report
// shows the sink waiting to receive on Double's out-edge, Src waiting to
// send once its link to Double is full, and the wait chain from Src into
// the stalled worker.
func TestMappedStallWatchdogShowsLinkWaits(t *testing.T) {
	g, s, _ := faultPipeline(t, gainFilter("Double", 2))
	assign := make([]int, len(g.Nodes))
	for i := range assign {
		assign[i] = i
	}
	me, err := NewMappedOpts(g, s, assign, len(g.Nodes), Options{
		Faults:     mustPlan(t, "stall:worker1@1"),
		Watchdog:   150 * time.Millisecond,
		QueueDepth: 1,
		// One epoch for the whole run: at a one-iteration epoch (the
		// default under worker faults) Src would wait at the barrier, not
		// on its link.
		CheckpointEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = me.Run(64)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want a *DeadlockError", err)
	}
	src, mid, snk := g.Nodes[0], g.Nodes[1], g.Nodes[2]
	if len(g.Nodes) != 3 || src.OutEdge().Dst != mid || mid.OutEdge().Dst != snk {
		t.Fatalf("graph is not the chain Src -> Double -> sink in node order")
	}
	want := map[string]FilterStatus{
		src.Name: {Worker: 0, State: "waiting send", Edge: src.OutEdge().String()},
		mid.Name: {Worker: 1, State: stStalled},
		snk.Name: {Worker: 2, State: "waiting recv", Edge: mid.OutEdge().String()},
	}
	for _, fs := range de.Blocked {
		w, ok := want[fs.Name]
		if !ok {
			t.Errorf("unexpected blocked node %v", fs)
			continue
		}
		delete(want, fs.Name)
		if fs.Worker != w.Worker || fs.State != w.State || fs.Edge != w.Edge {
			t.Errorf("%s: worker %d, %q on %q; want worker %d, %q on %q", fs.Name, fs.Worker, fs.State, fs.Edge, w.Worker, w.State, w.Edge)
		}
	}
	for name := range want {
		t.Errorf("%s missing from the report:\n%v", name, err)
	}
	if got := strings.Join(de.Cycle, " -> "); got != src.Name+" -> "+mid.Name {
		t.Errorf("wait chain = %q, want %s -> %s", got, src.Name, mid.Name)
	}
}

// TestMappedCrashNoSurvivors: crashing the only worker is not recoverable
// and must surface a structured error, not hang or panic.
func TestMappedCrashNoSurvivors(t *testing.T) {
	g, s, _ := faultPipeline(t, gainFilter("Double", 2))
	assign := make([]int, len(g.Nodes))
	me, err := NewMappedOpts(g, s, assign, 1, Options{Faults: mustPlan(t, "crash:worker0@1"),
		Replan: packer(&partition.ExecPlan{}, g, s)})
	if err != nil {
		t.Fatal(err)
	}
	err = me.Run(8)
	if err == nil || !strings.Contains(err.Error(), "no surviving workers") {
		t.Fatalf("err = %v, want a no-surviving-workers failure", err)
	}
}

// positionalSinks is buildMapped whose collectors record each item at its
// position on the sink's input ring instead of appending it: a rollback's
// replay then writes over what the first pass recorded, so the collected
// stream of a recovered run is comparable item for item with a clean run's.
func positionalSinks(tb testing.TB, build func() *ir.Program, strat partition.Strategy) *mappedBuild {
	tb.Helper()
	prog := build()
	var fs []*ir.Filter
	var outs []*[]float64
	prog.Top = swapSinks(prog.Top, &fs, &outs)
	for i, f := range fs {
		got, pop := outs[i], f.Kernel.Pop
		f.WorkFn = func(in, _ wfunc.Tape, _ *wfunc.State) {
			at := int(in.(*wfunc.Ring).Popped)
			if grow := at + pop - len(*got); grow > 0 {
				*got = append(*got, make([]float64, grow)...)
			}
			for k := range pop {
				(*got)[at+k] = in.Pop()
			}
		}
	}
	mb := planMapped(tb, prog, strat)
	mb.outs = outs
	return mb
}

// FuzzMappedCrashReplan: worker k crashes at a fuzzed iteration, and
// optionally a second worker of the re-planned topology crashes in a later
// epoch, so the recovered plan is itself re-planned — on 2 to 4 workers, a
// checkpoint at the first block end 1 to 4 iterations on, lockstep or
// pipelined, over FMRadio (its rollback state almost all lent), Vocoder
// (stateful scalars) or Radar (stateful field arrays). With restart, a
// filter of the crashing worker panics under the restart policy earlier in
// the crash's epoch, so a swapped state object goes through the rollback
// too. Every crash costs one worker, the collected output is bit-identical
// to an undisturbed run's, and the final image is byte-equal to it.
func FuzzMappedCrashReplan(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(1), uint8(5), false, uint8(0), uint8(0), false, uint8(0), false)
	f.Add(uint8(4), uint8(1), uint8(1), uint8(5), true, uint8(0), uint8(0), false, uint8(0), false)
	f.Add(uint8(3), uint8(3), uint8(2), uint8(7), true, uint8(1), uint8(2), true, uint8(0), false)
	f.Add(uint8(4), uint8(4), uint8(0), uint8(0), true, uint8(2), uint8(3), true, uint8(0), false)
	f.Add(uint8(2), uint8(2), uint8(0), uint8(16), false, uint8(0), uint8(0), true, uint8(0), false)
	f.Add(uint8(3), uint8(3), uint8(1), uint8(6), false, uint8(0), uint8(1), false, uint8(1), true)
	f.Add(uint8(2), uint8(1), uint8(0), uint8(7), true, uint8(0), uint8(2), true, uint8(2), true)
	f.Add(uint8(4), uint8(2), uint8(3), uint8(10), true, uint8(1), uint8(1), false, uint8(0), true)
	f.Add(uint8(4), uint8(2), uint8(3), uint8(10), true, uint8(1), uint8(1), false, uint8(2), true)
	// A checkpoint every iteration, the second crash in the first one's
	// block: it moves to the next block, a later epoch.
	f.Add(uint8(4), uint8(0), uint8(2), uint8(5), true, uint8(1), uint8(0), false, uint8(1), false)
	progs := []func() *ir.Program{
		func() *ir.Program { return apps.FMRadio(2, 8) },
		func() *ir.Program { return apps.Vocoder(4) },
		func() *ir.Program { return apps.Radar(4, 2) },
	}
	f.Fuzz(func(t *testing.T, workers, every, k1, at1 uint8, second bool, k2, gap uint8, pipelined bool, prog uint8, restart bool) {
		const goal = 24
		n := 2 + int(workers)%3
		ckpt := 1 + int(every)%4
		first := int64(at1) % 17
		spec := fmt.Sprintf("crash:worker%d@%d", int(k1)%n, first)
		strat := partition.StratTask
		if pipelined {
			strat = partition.StratSWP
		}
		build := progs[int(prog)%len(progs)]
		plan := func() *mappedBuild {
			mb := positionalSinks(t, build, strat)
			assign, err := packer(mb.plan, mb.g2, mb.s2)(n)
			if err != nil {
				t.Fatal(err)
			}
			mb.assign, mb.workers = assign, n
			return mb
		}
		run := func(mb *mappedBuild, opts Options) *MappedEngine {
			me := mb.engine(t, opts)
			if err := me.Run(goal); err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			return me
		}
		ref := plan()
		re := run(ref, Options{})
		// The first crash's epoch runs from the barrier at cycle at to stop,
		// by the engine's own rule over the blocks of a checkpointing drive
		// that crash cuts.
		sw, end := &swpState{cuts: []int64{first}, block: re.shared.block}, goal+re.swp.maxStage()
		at, stop := int64(0), sw.epochEnd(0, end, ckpt)
		for stop <= first {
			at, stop = stop, sw.epochEnd(stop, end, ckpt)
		}
		crashes := 1
		if second && n > 2 && stop < end {
			// At or past the end of the first crash's epoch: the second crash
			// meets the topology the first one re-planned.
			later := min(stop+int64(gap)%4, end-1)
			spec += fmt.Sprintf(";crash:worker%d@%d", int(k2)%(n-1), later)
			crashes++
		}
		mb := plan()
		opts := Options{CheckpointEvery: ckpt}
		if restart && at < first {
			// The crash rolls back to the barrier at cycle at: a filter of
			// the crashing worker that fires in that cycle restarts there,
			// once (a consumed fault is not re-armed by the replay).
			if name, firing, ok := restartAt(mb, int(k1)%n, at, int(gap)); ok {
				spec = fmt.Sprintf("panic:%s@%d;%s", name, firing, spec)
				opts.OnError = mustPolicies(t, name+"=restart")
			}
		}
		opts.Faults = mustPlan(t, spec)
		me := run(mb, opts)

		if me.Workers != n-crashes {
			t.Fatalf("%s on %d workers: finished on %d, want %d", spec, n, me.Workers, n-crashes)
		}
		var recovered int64
		for _, st := range me.Degraded() {
			recovered += st.Crashes
		}
		if recovered != int64(crashes) {
			t.Fatalf("%s: %d crashes recovered, want %d", spec, recovered, crashes)
		}
		compareOuts(t, ref.outs, mb.outs, spec)
		if !bytes.Equal(mappedCkptBytes(t, me, goal), mappedCkptBytes(t, re, goal)) {
			t.Fatalf("%s: final image differs from the undisturbed run's", spec)
		}
	})
}

// restartAt picks the pick-th filter (cyclically) of worker w that fires in
// cycle at of a fresh segment, and names its first firing there.
func restartAt(mb *mappedBuild, w int, at int64, pick int) (string, int64, bool) {
	var names []string
	var firings []int64
	for _, nd := range mb.g2.Nodes {
		level := int64(0)
		if mb.stages != nil {
			level = int64(mb.stages.Levels[nd.ID]) * StageBatch
		}
		if nd.Kind != ir.NodeFilter || mb.assign[nd.ID] != w || at < level {
			continue
		}
		names = append(names, nd.Name)
		firings = append(firings, int64(mb.s2.InitReps[nd.ID])+(at-level)*int64(mb.s2.Reps[nd.ID]))
	}
	if len(names) == 0 {
		return "", 0, false
	}
	return names[pick%len(names)], firings[pick%len(names)], true
}

// TestMappedQueueDepth: a minimal queue depth of one batch still conforms
// bit-exactly (backpressure changes scheduling, never values), and
// negative depths are rejected at construction.
func TestMappedQueueDepth(t *testing.T) {
	const iters = 4
	build := func() *ir.Program { return apps.FMRadio(4, 16) }
	mb := buildMapped(t, build, partition.StratCoarseData)
	me := mb.engine(t, Options{QueueDepth: 1})
	if err := me.Run(iters); err != nil {
		t.Fatalf("depth-1 run: %v", err)
	}
	sb := buildMapped(t, build, partition.StratCoarseData)
	se, err := NewFromGraphBackend(sb.g2, sb.s2, BackendVM)
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Run(iters); err != nil {
		t.Fatal(err)
	}
	compareOuts(t, sb.outs, mb.outs, "depth-1")

	if _, err := NewMappedOpts(mb.g2, mb.s2, mb.assign, mb.workers, Options{QueueDepth: -1}); err == nil {
		t.Fatal("negative queue depth accepted")
	}
	if _, err := NewMappedOpts(mb.g2, mb.s2, mb.assign, mb.workers, Options{CheckpointEvery: -1}); err == nil {
		t.Fatal("negative checkpoint interval accepted")
	}
}

// TestMappedCheckpointGolden pins the on-disk format: a mapped checkpoint
// of a fixed app and strategy at iteration 2 must match the committed
// golden image byte for byte, and the golden image must restore and run.
// Regenerate (only on an intentional format change) with
// STREAMIT_UPDATE_GOLDEN=1 go test ./internal/exec -run MappedCheckpointGolden.
func TestMappedCheckpointGolden(t *testing.T) {
	build := func() *ir.Program { return apps.FMRadio(2, 8) }
	mb := buildMapped(t, build, partition.StratCoarseData)
	me := mb.engine(t, Options{})
	if err := me.Run(2); err != nil {
		t.Fatal(err)
	}
	img := mappedCkptBytes(t, me, 2)

	path := filepath.Join("testdata", "mapped_fmradio_taskdata.ckpt")
	if os.Getenv("STREAMIT_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(img))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden image (regenerate with STREAMIT_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(want, img) {
		t.Fatalf("mapped checkpoint format drifted from the golden image (%d vs %d bytes); this breaks saved checkpoints", len(img), len(want))
	}
	fresh := buildMapped(t, build, partition.StratCoarseData).engine(t, Options{})
	if err := fresh.RunFromCheckpoint(want, 3); err != nil {
		t.Fatalf("golden image does not restore: %v", err)
	}
}

// TestMappedChaosSoak: randomized fault plans on mapped runs. Random
// filter faults under a skip policy must keep the mapped engine
// bit-identical to the supervised sequential engine (both inject the same
// deterministic schedule); adding a worker crash must still complete on
// the survivors with the crash accounted for.
func TestMappedChaosSoak(t *testing.T) {
	const iters = 6
	app := apps.Suite()[0]
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := fmt.Sprintf("rand:3@%d", seed)
			mb := buildMapped(t, app.Build, partition.StratFineData)
			me := mb.engine(t, Options{Faults: mustPlan(t, spec), OnError: mustPolicies(t, "skip")})
			if err := me.Run(iters); err != nil {
				t.Fatalf("chaos run %s: %v", spec, err)
			}
			sb := buildMapped(t, app.Build, partition.StratFineData)
			se, err := NewFromGraphOpts(sb.g2, sb.s2, Options{Faults: mustPlan(t, spec), OnError: mustPolicies(t, "skip")})
			if err != nil {
				t.Fatal(err)
			}
			if err := se.Run(iters); err != nil {
				t.Fatalf("sequential chaos run %s: %v", spec, err)
			}
			compareOuts(t, sb.outs, mb.outs, spec)

			// Random faults plus a worker crash: recovery converges and the
			// run completes on the surviving workers. (No bit-equality claim:
			// filter faults consumed in the aborted epoch are one-shot and
			// are not re-injected after rollback.)
			crashSpec := fmt.Sprintf("rand:2@%d;crash:worker1@%d", seed, seed)
			cb := buildMapped(t, app.Build, partition.StratFineData)
			ce := cb.engine(t, Options{Faults: mustPlan(t, crashSpec), OnError: mustPolicies(t, "skip")})
			if err := ce.Run(iters); err != nil {
				t.Fatalf("chaos run %s: %v", crashSpec, err)
			}
			if st := ce.Degraded()["worker1"]; st.Crashes != 1 {
				t.Errorf("worker1 stats = %+v, want 1 crash", st)
			}
		})
	}
}
