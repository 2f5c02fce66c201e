// Package core is the StreamIt compiler driver: it ties the front end,
// analyses, optimizations, scheduler, and backends together behind one
// entry point. This is the library's primary public surface — build or
// parse a program, Compile it, then execute it sequentially or map it onto
// the simulated multicore.
package core

import (
	"errors"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"streamit/internal/exec"
	"streamit/internal/faults"
	"streamit/internal/ir"
	"streamit/internal/lang"
	"streamit/internal/linear"
	"streamit/internal/machine"
	"streamit/internal/obs"
	"streamit/internal/partition"
	"streamit/internal/sched"
	"streamit/internal/sdep"
)

// Options configure compilation.
type Options struct {
	// Linear enables the linear-optimization pass with these settings.
	Linear *linear.Options
	// MaxLiveItems bounds total buffered items in the schedule (0 = off).
	MaxLiveItems int
	// CheckFeedback additionally verifies feedback loops against the
	// closed-form maxloop criterion (the scheduler always detects deadlock
	// and rate inconsistencies).
	CheckFeedback bool
}

// RunOptions configure execution-engine construction.
type RunOptions struct {
	// Backend selects the work-function execution substrate. The zero
	// value is the bytecode VM (exec.BackendVM); exec.BackendInterp forces
	// the tree-walking interpreter.
	Backend exec.Backend
	// Faults schedules deterministic fault injection for robustness
	// testing (nil: none). Build one with faults.ParsePlan, e.g.
	// "panic:LowPassFilter@100".
	Faults *faults.Plan
	// OnError maps filters to recovery policies (fail, retry, skip,
	// restart); the zero value fails fast. Build with
	// faults.ParsePolicies. A dynamic-rate run rejects non-fail policies.
	OnError faults.Policies
	// Watchdog is the no-progress window after which the mapped engine,
	// under every plan (-parallel's identity plan included), aborts with a
	// *exec.DeadlockError naming the blocked filters and wait-cycle. 0
	// selects exec.DefaultWatchdogInterval; negative disables detection.
	// The sequential engine, dynamic rates included, is single-threaded
	// and has none.
	Watchdog time.Duration
	// Profile enables the per-filter profiler (firings, tape traffic,
	// work/stall time, buffer high-water marks). Read the results from the
	// engine's Profile method; render a table with Profile().Table().
	Profile bool
	// TracePath enables the runtime trace recorder; after the run, write
	// the Chrome trace with engine.TraceRecorder().WriteFile(TracePath)
	// (cmd/streamit-run does this for its -trace flag).
	TracePath string
	// Workers is the mapped engine's worker-core count (0 selects
	// runtime.GOMAXPROCS).
	Workers int
	// MapStrategy selects the mapped engine's graph rewrite: task (no
	// rewrite), fine-grained data (replicate every stateless filter),
	// task+data (fuse stateless regions, then judicious fission), or the
	// pipelined forms task+swp (no rewrite, stage-skewed execution) and
	// task+data+swp (rewrite plus stage skew). The zero value is task+data.
	MapStrategy partition.Strategy
	// QueueDepth is the number of batch slots in each cross-worker edge's
	// ring on the mapped engine (0 selects exec.DefaultQueueDepth). The
	// backpressure bound: a producer runs at most QueueDepth iterations
	// ahead of a consumer.
	QueueDepth int
	// CheckpointEvery makes the mapped engine take a coordinated
	// checkpoint — the rollback target for worker-crash recovery — at the
	// first block end at least N steady iterations on: barriers fall at
	// block ends, so N = 1 is one record per block of up to
	// exec.StageBatch iterations, and a crash rolls back to the top of its
	// own block. 0 checkpoints only when a worker fault is scheduled (then
	// once per block).
	CheckpointEvery int
	// Log receives driver notes (engine fallbacks and the like). Nil logs
	// through the standard logger.
	Log func(format string, args ...any)
}

func (o RunOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
		return
	}
	log.Printf(format, args...)
}

// execOptions lowers driver-level run options to the engine layer.
func (o RunOptions) execOptions() exec.Options {
	opts := exec.Options{
		Backend:         o.Backend,
		Faults:          o.Faults,
		OnError:         o.OnError,
		Watchdog:        o.Watchdog,
		Profile:         o.Profile,
		QueueDepth:      o.QueueDepth,
		CheckpointEvery: o.CheckpointEvery,
	}
	if o.TracePath != "" {
		opts.Trace = obs.NewRecorder()
	}
	return opts
}

// ParseBackend maps the user-facing backend names ("vm", "interp") onto
// exec.Backend values; see the -backend flag of cmd/streamit-run.
func ParseBackend(s string) (exec.Backend, error) { return exec.ParseBackend(s) }

// Compiled is the result of compilation: the (possibly optimized) program,
// its flat graph, and its schedule.
type Compiled struct {
	Program  *ir.Program
	Graph    *ir.Graph
	Schedule *sched.Schedule
	Linear   *linear.Report
	Stats    ir.Stats

	// shared memoizes the per-backend execution-artifact bundles (see
	// Shared); engines stamped from one Compiled never recompile kernels.
	sharedMu sync.Mutex
	shared   map[exec.Backend]*exec.Shared
}

// ErrDynamicRates is Compile's error for a program with dynamic-rate
// filters: it has no steady-state schedule, and runs on the schedule-less
// sequential engine CompileDynamicOpts builds.
var ErrDynamicRates = errors.New("dynamic rates have no static schedule (use CompileDynamicOpts)")

// Compile verifies and schedules prog, applying the optional linear
// optimization first. The input program is not modified.
func Compile(prog *ir.Program, opts Options) (*Compiled, error) {
	c := &Compiled{Program: prog}
	if opts.Linear != nil {
		rep := &linear.Report{}
		top, err := linear.Optimize(prog.Top, *opts.Linear, rep)
		if err != nil {
			return nil, fmt.Errorf("linear optimization: %w", err)
		}
		c.Program = &ir.Program{
			Name: prog.Name, Top: top,
			Portals: prog.Portals, Constraints: prog.Constraints,
		}
		c.Linear = rep
	}
	g, err := ir.Flatten(c.Program)
	if err != nil {
		return nil, err
	}
	for _, n := range g.Nodes {
		if k := n.KernelOf(); k != nil && k.Dynamic {
			return nil, fmt.Errorf("filter %s: %w", n.Name, ErrDynamicRates)
		}
	}
	s, err := sched.ComputeOpts(g, sched.Options{MaxLiveItems: opts.MaxLiveItems})
	if err != nil {
		return nil, err
	}
	if opts.CheckFeedback {
		if err := sdep.CheckFeedback(g, s); err != nil {
			return nil, err
		}
	}
	st, err := g.ComputeStats()
	if err != nil {
		return nil, err
	}
	c.Graph, c.Schedule, c.Stats = g, s, st
	return c, nil
}

// CompileSource parses, elaborates (from the stream named top, typically
// "Main"), and compiles a textual StreamIt program.
func CompileSource(src, top string, opts Options) (*Compiled, error) {
	prog, err := lang.ParseAndElaborate(src, top)
	if err != nil {
		return nil, err
	}
	return Compile(prog, opts)
}

// Engine builds a sequential execution engine for the compiled program on
// the default (VM) backend.
func (c *Compiled) Engine() (*exec.Engine, error) {
	return c.EngineOpts(RunOptions{})
}

// EngineOpts is Engine with explicit run options. Construction goes
// through the compiled program's shared artifact bundle, so building many
// engines from one Compiled compiles each work function exactly once.
func (c *Compiled) EngineOpts(opts RunOptions) (*exec.Engine, error) {
	sh, err := c.Shared(opts.Backend)
	if err != nil {
		return nil, err
	}
	return sh.NewEngine(opts.execOptions())
}

// ParallelEngineOpts builds the goroutine-per-filter plan: the mapped
// engine over the graph as compiled, one worker per node (no teleport
// messaging or feedback loops; see exec.NewParallelOpts).
func (c *Compiled) ParallelEngineOpts(opts RunOptions) (*exec.MappedEngine, error) {
	eopts := opts.execOptions()
	// The identity plan rewrites nothing, so the empty plan re-packs it.
	eopts.Replan = replanner(&partition.ExecPlan{}, c.Graph, c.Schedule)
	return exec.NewParallelOpts(c.Graph, c.Schedule, eopts)
}

// replanner is the planner core hands every mapped engine: the plan's own
// packer over the rewritten graph the engine runs. Crash recovery re-packs
// that graph; the rewrite itself is never redone (its fission factor — and
// with it the graph and checkpoint fingerprint — depends on the worker
// count, so a re-plan must only re-assign).
func replanner(plan *partition.ExecPlan, g2 *ir.Graph, s2 *sched.Schedule) func(int) ([]int, error) {
	return func(workers int) ([]int, error) {
		return plan.Pack(g2, s2, partition.Topology{Shards: workers, PerShard: 1})
	}
}

// MappedEngineOpts rewrites the compiled graph with the configured
// strategy (RunOptions.MapStrategy), assigns the result to worker cores,
// and builds the mapped engine. The rewrite is bit-identical: the mapped
// engine produces exactly the sequential engine's output streams.
func (c *Compiled) MappedEngineOpts(opts RunOptions) (*exec.MappedEngine, error) {
	strat := opts.MapStrategy
	if strat == "" {
		strat = partition.StratCoarseData
	}
	plan, err := partition.BuildExecPlan(c.Program, c.Graph, c.Schedule, partition.ExecPlanOptions{
		Strategy: strat,
		Workers:  opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	g2, err := ir.Flatten(plan.Program)
	if err != nil {
		return nil, fmt.Errorf("core: flattening mapped rewrite: %w", err)
	}
	s2, err := sched.Compute(g2)
	if err != nil {
		return nil, fmt.Errorf("core: scheduling mapped rewrite: %w", err)
	}
	eopts := opts.execOptions()
	if plan.Pipelined {
		st, err := partition.PipelineStages(g2)
		if err != nil {
			return nil, fmt.Errorf("core: staging mapped rewrite: %w", err)
		}
		eopts.Stages = st.Levels
		eopts.StageClusters = st.Clusters
	}
	eopts.Replan = replanner(plan, g2, s2)
	return exec.NewMappedOpts(g2, s2, plan.Assign(g2, s2), plan.Workers, eopts)
}

// EngineKind names an execution engine family for Runner.
type EngineKind string

const (
	EngineSequential EngineKind = "sequential"
	EngineParallel   EngineKind = "parallel"
	EngineMapped     EngineKind = "mapped"
)

// Runner is the execution surface shared by the sequential, parallel, and
// mapped engines: run a number of steady-state iterations and expose the
// observability hooks.
type Runner interface {
	Run(iters int) error
	Profile() *obs.Profiler
	TraceRecorder() *obs.Recorder
	SupervisionReport() string
	Degraded() map[string]exec.DegradedStats
}

// Runner builds the requested engine. Programs whose features the
// concurrent engines cannot execute (feedback loops, teleport messaging)
// are detected up front and fall back to the sequential engine with a
// logged note instead of failing engine construction. The mapped engine
// under a pipelined strategy (RunOptions.MapStrategy task+swp or
// task+data+swp) hosts both features in stage clusters, so it never falls
// back.
func (c *Compiled) Runner(kind EngineKind, opts RunOptions) (Runner, error) {
	if kind != EngineSequential && !(kind == EngineMapped && opts.MapStrategy.Pipelined()) {
		if why := c.Graph.LockstepBlocker(); why != "" {
			opts.logf("core: %s engine unavailable for %s (%s); falling back to sequential", kind, c.Program.Name, why)
			kind = EngineSequential
		}
	}
	switch kind {
	case EngineSequential:
		return c.EngineOpts(opts)
	case EngineParallel:
		return c.ParallelEngineOpts(opts)
	case EngineMapped:
		return c.MappedEngineOpts(opts)
	}
	return nil, fmt.Errorf("core: unknown engine kind %q", kind)
}

// CompileDynamicOpts flattens a program with dynamic-rate filters (no
// static schedule exists) and returns the sequential engine built without
// a schedule, which runs by Engine.RunItems: a sink-item count through the
// data-driven loop. Teleport messaging and recovery policies are
// construction errors.
func CompileDynamicOpts(prog *ir.Program, opts RunOptions) (*exec.Engine, error) {
	g, err := ir.Flatten(prog)
	if err != nil {
		return nil, err
	}
	return exec.NewFromGraphOpts(g, nil, opts.execOptions())
}

// MapOnto maps the program onto the simulated multicore through the plan
// the mapped engine runs for the machine's tile count (partition.Lower) and
// simulates iters steady-state iterations.
func (c *Compiled) MapOnto(strat partition.Strategy, cfg machine.Config, iters int) (*machine.Result, error) {
	plan, err := partition.Lower(c.Program, c.Graph, c.Schedule, strat, cfg.Tiles())
	if err != nil {
		return nil, err
	}
	return plan.Simulate(cfg, iters)
}

// MapOntoTraced is MapOnto plus a Chrome trace JSON written to tracePath.
func (c *Compiled) MapOntoTraced(strat partition.Strategy, cfg machine.Config, iters int, tracePath string) (*machine.Result, error) {
	plan, err := partition.Lower(c.Program, c.Graph, c.Schedule, strat, cfg.Tiles())
	if err != nil {
		return nil, err
	}
	res, events, err := machine.SimulateTrace(plan.Graph, plan.Mapping, cfg, iters)
	if err != nil {
		return nil, err
	}
	if plan.Scale > 1 {
		res.CyclesPerIter /= float64(plan.Scale)
		res.ItersPerSec *= float64(plan.Scale)
	}
	f, err := os.Create(tracePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := machine.WriteChromeTrace(f, events); err != nil {
		return nil, err
	}
	return res, nil
}

// Report renders a human-readable compilation report: structure, rates,
// characteristics, and per-filter linear analysis.
func (c *Compiled) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", c.Program.Name)
	fmt.Fprintf(&b, "  filters: %d (peeking %d, stateful %d)\n",
		c.Stats.Filters, c.Stats.Peeking, c.Stats.Stateful)
	fmt.Fprintf(&b, "  source-to-sink paths: shortest %d, longest %d\n",
		c.Stats.ShortestPath, c.Stats.LongestPath)
	fmt.Fprintf(&b, "  steady state: %d firings\n", c.Schedule.TotalFirings())
	fmt.Fprintf(&b, "  init schedule: %d firings\n", totalInit(c.Schedule))
	if c.Linear != nil {
		fmt.Fprintf(&b, "  linear optimization: %d/%d filters linear, %d combined away, %d matrix kernels\n",
			c.Linear.LinearFilters, c.Linear.TotalFilters,
			c.Linear.Combined, c.Linear.MatrixReplaced)
	}
	b.WriteString("\nstructure:\n")
	b.WriteString(ir.String(c.Program.Top))

	// Per-node schedule summary.
	b.WriteString("\nsteady-state repetitions:\n")
	type row struct {
		name string
		reps int
	}
	var rows []row
	for _, n := range c.Graph.Nodes {
		rows = append(rows, row{n.Name, c.Schedule.Reps[n.ID]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-32s x%d\n", r.name, r.reps)
	}

	// Linear analysis of the (pre-optimization) program.
	lin := linear.Analyze(c.Program.Top)
	if len(lin) > 0 {
		b.WriteString("\nlinear filters (out = A*peeks + b):\n")
		var names []string
		for name := range lin {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			r := lin[name]
			fmt.Fprintf(&b, "  %-32s peek=%d pop=%d push=%d, %d nonzero coefficients\n",
				name, r.Peek, r.Pop, r.Push, r.NonZeros())
		}
	}
	return b.String()
}

func totalInit(s *sched.Schedule) int {
	t := 0
	for _, r := range s.InitReps {
		t += r
	}
	return t
}

// SdepTable renders the information-wavefront transfer functions between
// two named instances (declared with "as" in the source): for x = 1..n,
// the columns are ma{a->b}(x) and mi{a->b}(x) over the instances' output
// tapes. This is the paper's sdep made inspectable.
func (c *Compiled) SdepTable(aName, bName string, n int) (string, error) {
	a := c.Program.Named[aName]
	b := c.Program.Named[bName]
	if a == nil || b == nil {
		return "", fmt.Errorf("sdep: both instances must be declared with \"as\" (have %v)", keysOf(c.Program.Named))
	}
	na, nb := c.Graph.FilterNode[a], c.Graph.FilterNode[b]
	if na == nil || nb == nil {
		return "", fmt.Errorf("sdep: instances not present in the flattened graph")
	}
	ea, eb := na.OutEdge(), nb.OutEdge()
	if ea == nil {
		ea = na.InEdge()
	}
	if eb == nil {
		eb = nb.InEdge()
	}
	if ea == nil || eb == nil {
		return "", fmt.Errorf("sdep: instances have no tapes")
	}
	calc := sdep.NewCalc(c.Graph, c.Schedule)
	if !calc.Upstream(ea, eb) {
		return "", fmt.Errorf("sdep: %s is not upstream of %s", aName, bName)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "sdep between %s and %s (tapes %s -> %s)\n", aName, bName, ea, eb)
	fmt.Fprintf(&sb, "%6s %12s %12s\n", "x", "ma(x)", "mi(x)")
	for x := int64(1); x <= int64(n); x++ {
		ma, err := calc.Ma(ea, eb, x)
		if err != nil {
			return "", err
		}
		mi, err := calc.Mi(ea, eb, x)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%6d %12d %12d\n", x, ma, mi)
	}
	return sb.String(), nil
}

func keysOf(m map[string]*ir.Filter) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
