package core

import (
	"bytes"
	"fmt"

	"errors"
	"math"
	"slices"
	"streamit/internal/ir"
	"strings"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/exec"
	"streamit/internal/faults"
	"streamit/internal/linear"
	"streamit/internal/machine"
	"streamit/internal/partition"
)

const firSrc = `
void->float filter Ramp() {
    float n;
    work push 1 { push(n); n = n + 1; }
}
float->float filter Smooth(int N) {
    work peek N pop 1 push 1 {
        float s = 0;
        for (int i = 0; i < N; i++) s += peek(i);
        pop();
        push(s / N);
    }
}
float->float filter Smooth2(int N) {
    work peek N pop 1 push 1 {
        float s = 0;
        for (int i = 0; i < N; i++) s += peek(i);
        pop();
        push(s / N);
    }
}
float->void filter Out() { work pop 1 { pop(); } }
void->void pipeline Main() {
    add Ramp();
    add Smooth(8);
    add Smooth2(4);
    add Out();
}
`

func TestCompileSourceAndRun(t *testing.T) {
	c, err := CompileSource(firSrc, "Main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := c.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(16); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	for _, want := range []string{"filters: 4", "linear filters", "Smooth"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestCompileWithLinearOptimization(t *testing.T) {
	opt := linear.Options{Combine: true}
	c, err := CompileSource(firSrc, "Main", Options{Linear: &opt})
	if err != nil {
		t.Fatal(err)
	}
	if c.Linear == nil || c.Linear.Combined < 1 {
		t.Fatalf("expected the two Smooth filters to combine, report %+v", c.Linear)
	}
	e, err := c.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(8); err != nil {
		t.Fatal(err)
	}
}

func TestMapOnto(t *testing.T) {
	prog := apps.FMRadio(4, 16)
	c, err := Compile(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	seq, err := c.MapOnto(partition.StratSequential, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.MapOnto(partition.StratCombined, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	if par.Speedup(seq) < 2 {
		t.Errorf("combined mapping speedup = %.2f, want >= 2", par.Speedup(seq))
	}
}

func TestCompileChecksFeedback(t *testing.T) {
	src := `
void->float filter Src() { float n; work push 1 { push(n); n = n + 1; } }
float->float filter Body() { work pop 2 push 1 { push(pop() + pop()); } }
float->void filter Out() { work pop 1 { pop(); } }
float->float feedbackloop Loop() {
    join roundrobin(1, 1);
    body Body();
    split duplicate;
    enqueue 1.0;
}
void->void pipeline Main() { add Src(); add Loop(); add Out(); }
`
	if _, err := CompileSource(src, "Main", Options{CheckFeedback: true}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxLiveItemsOption(t *testing.T) {
	c, err := CompileSource(firSrc, "Main", Options{MaxLiveItems: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range c.Schedule.BufCap {
		if cap > 64 {
			t.Errorf("buffer cap %d exceeds MaxLiveItems", cap)
		}
	}
}

func TestSdepTableTool(t *testing.T) {
	src := `
void->float filter Src() { float n; work push 1 { push(n); n = n + 1; } }
float->float filter Mid() { work peek 3 pop 1 push 1 { push(peek(2)); pop(); } }
float->void filter Out() { work pop 1 { pop(); } }
void->void pipeline Main() { add Src() as src; add Mid() as mid; add Out() as out; }
`
	c, err := CompileSource(src, "Main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := c.SdepTable("src", "mid", 8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl, "ma(x)") || !strings.Contains(tbl, "mi(x)") {
		t.Errorf("table missing columns:\n%s", tbl)
	}
	// Reversed order errors.
	if _, err := c.SdepTable("mid", "src", 4); err == nil {
		t.Error("expected upstream-order error")
	}
	// Unknown names error and list the available ones.
	if _, err := c.SdepTable("nope", "mid", 4); err == nil || !strings.Contains(err.Error(), "src") {
		t.Errorf("expected helpful unknown-name error, got %v", err)
	}
}

// TestRunOptionsSupervision: the driver threads fault plans, recovery
// policies, and the watchdog interval down to all three engines.
func TestRunOptionsSupervision(t *testing.T) {
	c, err := CompileSource(firSrc, "Main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.ParsePlan("panic:Smooth@3")
	if err != nil {
		t.Fatal(err)
	}
	pols, err := faults.ParsePolicies("Smooth=retry")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Faults: plan, OnError: pols}

	e, err := c.EngineOpts(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(16); err != nil {
		t.Fatalf("retry policy should survive the injected panic: %v", err)
	}
	st := e.Degraded()["Smooth"]
	if st.Injected != 1 || st.Retries != 1 {
		t.Fatalf("degraded stats = %+v, want 1 injection / 1 retry", st)
	}

	pe, err := c.ParallelEngineOpts(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := pe.Run(16); err != nil {
		t.Fatalf("parallel retry failed: %v", err)
	}
	if pst := pe.Degraded()["Smooth"]; pst.Injected != 1 {
		t.Fatalf("parallel degraded stats = %+v", pst)
	}

	// The dynamic engine cannot honour recovery policies (skip needs
	// declared rates); they are a construction-time error, surfaced
	// through the driver.
	if _, err := CompileDynamicOpts(c.Program, opts); err == nil {
		t.Fatal("dynamic engine accepted a recovery policy")
	}
}

// TestRunOptionsWatchdogDisabled: a negative watchdog interval reaches the
// parallel engine (the run fails via the fault, not a DeadlockError).
func TestRunOptionsWatchdogDisabled(t *testing.T) {
	c, err := CompileSource(firSrc, "Main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.ParsePlan("panic:Smooth@2")
	if err != nil {
		t.Fatal(err)
	}
	pe, err := c.ParallelEngineOpts(RunOptions{Faults: plan, Watchdog: -1})
	if err != nil {
		t.Fatal(err)
	}
	err = pe.Run(16)
	var ee *exec.ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want the injected *exec.ExecError", err)
	}
	if faults.BaseName(ee.Filter) != "Smooth" {
		t.Fatalf("error names %q, want Smooth", ee.Filter)
	}
}

// TestRunnerFeedbackFallback: programs with feedback loops cannot run on
// the concurrent engines; Runner must detect that up front and fall back
// to the sequential engine with a logged note, never a hard failure.
func TestRunnerFeedbackFallback(t *testing.T) {
	prog := &ir.Program{Name: "loop", Top: ir.Pipe("main",
		apps.Source("s"),
		&ir.FeedbackLoop{
			Name: "fl", Join: ir.RoundRobin(1, 1),
			Body:  apps.Adder("add", 2),
			Split: ir.Duplicate(), Delay: 1,
		},
		apps.Sink("k", 1),
	)}
	c, err := Compile(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []EngineKind{EngineParallel, EngineMapped} {
		var notes []string
		opts := RunOptions{Log: func(format string, args ...any) {
			notes = append(notes, fmt.Sprintf(format, args...))
		}}
		r, err := runKind(c, kind, 8, opts)
		if err != nil {
			t.Fatalf("%s: fallback run failed: %v", kind, err)
		}
		if _, ok := r.(*exec.Engine); !ok {
			t.Fatalf("%s: runner is %T, want the sequential *exec.Engine", kind, r)
		}
		if len(notes) != 1 || !strings.Contains(notes[0], "feedback loop") {
			t.Fatalf("%s: fallback note not logged: %v", kind, notes)
		}
	}
}

// TestRunnerPipelinedNoFallback: under a pipelined mapped strategy the
// fallback is lifted — feedback-loop and teleport-messaging programs run
// on the real *exec.MappedEngine with no fallback note logged. (Value
// conformance for these workloads lives in the exec package's
// TestMappedPipelinedFeedback/Teleport.)
func TestRunnerPipelinedNoFallback(t *testing.T) {
	cases := []struct {
		name  string
		build func() *ir.Program
	}{
		{"feedback", func() *ir.Program { return apps.Reverb(4, 0.5) }},
		{"teleport", func() *ir.Program { return apps.FreqHoppingRadio(true) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compile(tc.build(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, strat := range []partition.Strategy{partition.StratSWP, partition.StratCombined} {
				var notes []string
				r, err := runKind(c, EngineMapped, 4, RunOptions{
					Workers: 3, MapStrategy: strat,
					Log: func(format string, args ...any) {
						notes = append(notes, fmt.Sprintf(format, args...))
					}})
				if err != nil {
					t.Fatalf("%s: pipelined mapped run failed: %v", strat, err)
				}
				if _, ok := r.(*exec.MappedEngine); !ok {
					t.Fatalf("%s: runner is %T, want *exec.MappedEngine", strat, r)
				}
				if len(notes) != 0 {
					t.Fatalf("%s: unexpected fallback notes: %v", strat, notes)
				}
			}
		})
	}
}

// TestRunnerKinds: each engine kind constructs its own engine type when the
// program supports it, and runs produce no error.
func TestRunnerKinds(t *testing.T) {
	c, err := CompileSource(firSrc, "Main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		kind EngineKind
		want string
	}{
		{EngineSequential, "*exec.Engine"},
		{EngineParallel, "*exec.MappedEngine"},
		{EngineMapped, "*exec.MappedEngine"},
	}
	for _, tc := range cases {
		r, err := runKind(c, tc.kind, 8, RunOptions{Workers: 2, Log: func(string, ...any) {
			t.Errorf("%s: unexpected fallback note", tc.kind)
		}})
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if got := fmt.Sprintf("%T", r); got != tc.want {
			t.Fatalf("kind %s built %s, want %s", tc.kind, got, tc.want)
		}
	}
	if _, err := c.Runner("warp", RunOptions{}); err == nil {
		t.Fatal("Runner accepted an unknown engine kind")
	}
}

// TestRunnerParallelIsIdentityPlan: EngineParallel names a plan, not an
// engine — the mapped engine over the graph as compiled, one worker per
// node — and its output is byte-equal to the sequential engine's.
func TestRunnerParallelIsIdentityPlan(t *testing.T) {
	run := func(kind EngineKind) ([]float64, Runner) {
		prog := apps.FMRadio(4, 16)
		pipe := prog.Top.(*ir.Pipeline)
		snk, got := exec.SliceSink("collect")
		pipe.Children[len(pipe.Children)-1] = snk
		c, err := Compile(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := runKind(c, kind, 12, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		return *got, r
	}
	seq, _ := run(EngineSequential)
	par, r := run(EngineParallel)
	me, ok := r.(*exec.MappedEngine)
	if !ok {
		t.Fatalf("runner is %T, want *exec.MappedEngine", r)
	}
	if me.Workers != len(me.G.Nodes) {
		t.Fatalf("%d workers for %d nodes", me.Workers, len(me.G.Nodes))
	}
	for id, w := range me.Assign {
		if w != id {
			t.Fatalf("assignment %v, want one node per worker", me.Assign)
		}
	}
	if len(seq) == 0 || len(par) != len(seq) {
		t.Fatalf("parallel plan produced %d items, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		if math.Float64bits(par[i]) != math.Float64bits(seq[i]) {
			t.Fatalf("item %d: parallel plan %v, sequential %v", i, par[i], seq[i])
		}
	}
}

// TestMappedEngineRuns: the driver-level mapped construction rewrites the
// graph (task+data by default), runs it, and delivers the sink a whole
// multiple of the sequential engine's items per iteration count. (Exact
// value conformance across all apps and strategies is asserted by the
// exec package's TestMappedConformance.)
func TestMappedEngineRuns(t *testing.T) {
	build := func() *ir.Program { return apps.FMRadio(4, 16) }
	iters := 4

	cSeq, err := Compile(build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq := sinkPopped(t, cSeq, EngineSequential, iters)
	cMap, err := Compile(build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mapped := sinkPopped(t, cMap, EngineMapped, iters)
	if seq <= 0 || mapped < seq || mapped%seq != 0 {
		t.Fatalf("mapped sink saw %d items, want a positive whole multiple of the sequential %d", mapped, seq)
	}
}

// sinkPopped runs iters iterations on the given engine kind with profiling
// enabled and returns the items popped by the program's sink.
func sinkPopped(t *testing.T, c *Compiled, kind EngineKind, iters int) int64 {
	t.Helper()
	r, err := runKind(c, kind, iters, RunOptions{Workers: 2, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	var popped int64
	for _, st := range r.Profile().Snapshot() {
		if strings.HasPrefix(st.Name, "speaker") {
			popped += st.Popped
		}
	}
	return popped
}

// TestMappedCrashRecoveryDriver: a worker-crash fault plan threaded
// through the driver completes on the surviving workers, with the crash
// visible in the degradation stats and the supervision report. (Bit-exact
// recovery is asserted at the exec layer; here we prove the driver wires
// CheckpointEvery, worker faults, and the re-planning hook together.)
func TestMappedCrashRecoveryDriver(t *testing.T) {
	c, err := Compile(apps.FMRadio(4, 16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.ParsePlan("crash:worker1@2")
	if err != nil {
		t.Fatal(err)
	}
	r, err := runKind(c, EngineMapped, 6, RunOptions{
		Workers: 3, MapStrategy: partition.StratCoarseData,
		Faults: plan, CheckpointEvery: 1, QueueDepth: 2,
	})
	if err != nil {
		t.Fatalf("mapped run did not recover from the worker crash: %v", err)
	}
	me, ok := r.(*exec.MappedEngine)
	if !ok {
		t.Fatalf("runner is %T, want *exec.MappedEngine", r)
	}
	if me.Workers != 2 {
		t.Errorf("engine degraded to %d workers, want 2", me.Workers)
	}
	st := me.Degraded()["worker1"]
	if st.Injected != 1 || st.Crashes != 1 {
		t.Errorf("worker1 stats = %+v, want 1 injection and 1 crash", st)
	}
	if rep := me.SupervisionReport(); !strings.Contains(rep, "crashes=1") {
		t.Errorf("supervision report does not count the crash:\n%s", rep)
	}
}

// TestMappedCrashMatrix: crash recovery through the path every binary
// takes — Runner(EngineMapped), the plan's packer as the planner — on the
// pipelined strategies, where the re-pack separates producers from
// consumers mid-segment and the restore has to rebuild staging residue the
// crashed topology never held. Every run finishes, reports the one crash,
// and ends on a checkpoint image byte-equal to an undisturbed run's. The
// identity plan re-plans through the same packer.
func TestMappedCrashMatrix(t *testing.T) {
	const iters = 6
	finish := func(t *testing.T, c *Compiled, kind EngineKind, opts RunOptions, spec string) []byte {
		t.Helper()
		var err error
		if spec != "" {
			if opts.Faults, err = faults.ParsePlan(spec); err != nil {
				t.Fatal(err)
			}
		}
		r, err := runKind(c, kind, iters, opts)
		if err != nil {
			t.Fatalf("run did not finish: %v", err)
		}
		me := r.(*exec.MappedEngine)
		if spec != "" {
			if st := me.Degraded()["worker1"]; st.Injected != 1 || st.Crashes != 1 {
				t.Fatalf("worker1 stats = %+v, want 1 injection and 1 crash", st)
			}
		}
		var img bytes.Buffer
		if err := me.WriteCheckpoint(&img, iters); err != nil {
			t.Fatal(err)
		}
		return img.Bytes()
	}
	for _, app := range apps.Suite() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			c, err := Compile(app.Build(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, strat := range []partition.Strategy{partition.StratSWP, partition.StratCombined} {
				for workers := 2; workers <= 4; workers++ {
					opts := RunOptions{Workers: workers, MapStrategy: strat}
					want := finish(t, c, EngineMapped, opts, "")
					for at := 1; at <= 3; at++ {
						spec := fmt.Sprintf("crash:worker1@%d", at)
						t.Run(fmt.Sprintf("%s/%d/%s", strat, workers, spec), func(t *testing.T) {
							if got := finish(t, c, EngineMapped, opts, spec); !bytes.Equal(want, got) {
								t.Fatalf("recovered run ends on a different state (%d vs %d bytes)", len(got), len(want))
							}
						})
					}
				}
			}
		})
	}
	t.Run("parallel", func(t *testing.T) {
		c, err := Compile(apps.FMRadio(4, 16), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := finish(t, c, EngineParallel, RunOptions{}, "")
		if got := finish(t, c, EngineParallel, RunOptions{}, "crash:worker1@2"); !bytes.Equal(want, got) {
			t.Fatalf("recovered run ends on a different state (%d vs %d bytes)", len(got), len(want))
		}
	})
}

// A counted loop that assigns its own variable runs fewer trips than its
// bounds say, so its pops and pushes cannot be counted statically: the
// filter below pushes 4 items, as declared, and must compile and run.
const skipSrc = `
void->float filter Ramp() {
    float n;
    work push 1 { push(n); n = n + 1; }
}
float->float filter Skip() {
    work pop 1 push 4 {
        float x = pop();
        for (int i = 0; i < 8; i++) { push(x * 10 + i); i = i + 1; }
    }
}
float->void filter Out() { work pop 1 { println(pop()); } }
void->void pipeline Main() {
    add Ramp();
    add Skip();
    add Out();
}
`

func TestCompileLoopAssigningItsVariable(t *testing.T) {
	c, err := CompileSource(skipSrc, "Main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := c.Engine()
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	e.Printer = func(_ string, v float64) { got = append(got, v) }
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2, 4, 6, 10, 12, 14, 16}
	if !slices.Equal(got, want) {
		t.Errorf("sink saw %v, want %v", got, want)
	}
}

// runKind builds the requested engine (falling back to sequential when the
// program demands it, see Compiled.Runner) and runs iters steady-state
// iterations, returning the engine for inspection of profiles and reports.
func runKind(c *Compiled, kind EngineKind, iters int, opts RunOptions) (Runner, error) {
	r, err := c.Runner(kind, opts)
	if err != nil {
		return nil, err
	}
	return r, r.Run(iters)
}
