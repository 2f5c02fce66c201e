package exec

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"streamit/internal/faults"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/wfunc"
)

// Options configure engine construction across all engines: the
// work-function backend, an optional fault-injection plan, per-kernel
// recovery policies, and the mapped engine's watchdog interval.
type Options struct {
	// Backend selects the work-function substrate (zero value: bytecode VM).
	Backend Backend
	// Faults schedules deterministic fault injection (nil: none); its
	// shard faults only cut the mapped engine's blocks.
	Faults *faults.Plan
	// OnError maps filters to recovery policies (zero value: fail).
	OnError faults.Policies
	// Watchdog is the mapped engine's stall-detection interval: if no batch
	// moves anywhere for this long, the run aborts with a *DeadlockError
	// describing the blocked wait-cycle. 0 selects DefaultWatchdogInterval;
	// negative disables the watchdog. The other engines are single-threaded
	// and ignore it.
	Watchdog time.Duration
	// QueueDepth bounds the mapped engine's cross-worker links, in
	// batches. 0 selects DefaultQueueDepth; the other engines ignore it.
	QueueDepth int
	// CheckpointEvery makes the mapped engine take a coordinated checkpoint
	// record (the rollback target for worker-crash recovery) at the first
	// block end at least N steady iterations on: N = 1 is one per block of
	// up to StageBatch iterations. 0 checkpoints only when a worker fault is
	// scheduled (then once per block); the other engines ignore it.
	CheckpointEvery int
	// Stages enables coarse-grained software pipelining on the mapped
	// engine: Stages[n.ID] is the node's pipeline stage level (typically
	// partition.PipelineStages over the plan's rewritten graph). Workers
	// skew by stage — a producer runs macro-cycle i while its consumer
	// still runs i-StageBatch — with cross-worker transfers batched every
	// StageBatch cycles. nil keeps the classic lockstep iteration
	// schedule; the other engines ignore it.
	Stages []int
	// StageClusters lists node groups (by node ID) that must fire
	// together at firing granularity under pipelining — feedback loops
	// and teleport-messaging hulls. Each group must sit on one worker at
	// one stage level. Only meaningful with Stages.
	StageClusters [][]int
	// Replan is the mapped engine's planner: it re-assigns the nodes of the
	// engine's own graph to a new worker count (partition.ExecPlan.Pack
	// over the plan the engine was built from). The engine never packs:
	// crash recovery asks it for the surviving count. An answer that
	// breaks the engine's invariants (every node covered, workers in range,
	// stage clusters whole) fails the run. Required by a fault plan
	// scheduling crash:workerN; the other engines ignore it.
	Replan func(workers int) ([]int, error)
	// Profile enables the per-filter profiler (internal/obs): firings,
	// tape traffic, work/stall time, and buffer high-water marks,
	// retrievable via the engine's Profile method.
	Profile bool
	// Trace attaches a trace recorder (internal/obs): firings, steady
	// iterations, teleport deliveries, and fault/recovery events stream
	// into it as Chrome trace_event records.
	Trace *obs.Recorder
	// LocalWorkers turns the mapped engine into one shard of a
	// distributed run: LocalWorkers[w] marks the workers this process
	// executes, the rest belong to peer shards, and the caller pumps the
	// far side of every link crossing the boundary (DrainBoundary,
	// FillBoundary). nil runs every worker locally; the other engines
	// ignore it. Requires a lockstep plan (no Stages).
	LocalWorkers []bool
}

// DefaultWatchdogInterval is the no-progress window after which the mapped
// engine declares deadlock. Generous enough that only a genuine wedge
// (never a slow kernel making progress) trips it.
const DefaultWatchdogInterval = 5 * time.Second

// supervised reports whether the options ask for any supervision work;
// shard faults ask for none (the distributed runtime fires them).
func (o Options) supervised() bool {
	f := o.Faults
	return f != nil && (len(f.Faults) > 0 || len(f.WorkerFaults) > 0 || f.Rand != nil) || o.OnError.Active()
}

// replans reports whether the options schedule a worker crash, the one
// mapped-engine configuration that re-plans at run time.
func (o Options) replans() bool {
	return o.Faults != nil && slices.ContainsFunc(o.Faults.WorkerFaults, func(wf faults.WorkerFault) bool { return wf.Kind == faults.Crash })
}

// filterNames lists the graph's filter-node names in deterministic graph
// order (the order fault plans materialize against).
func filterNames(g *ir.Graph) []string {
	var out []string
	for _, n := range g.Nodes {
		if n.Kind == ir.NodeFilter {
			out = append(out, n.Name)
		}
	}
	return out
}

// DegradedStats counts the recovery actions taken for one filter (or, for
// the mapped engine's worker-level faults, one worker).
type DegradedStats struct {
	Injected  int64 // faults the injector delivered
	Retries   int64 // rolled-back re-executions
	Skips     int64 // firings replaced by rate-honoring zeros
	Restarts  int64 // state resets
	Corrupted int64 // firings whose pushes were replaced by the corrupt sentinel
	Crashes   int64 // worker crashes recovered by replan + rollback
	Slowed    int64 // injected worker slowdowns
}

// supervisor applies fault injection and recovery policies to filter
// firings. One instance is shared by all node contexts of an engine; it is
// concurrency-safe for the mapped engine's workers.
type supervisor struct {
	inj *faults.Injector
	pol faults.Policies

	mu           sync.Mutex
	stats        map[string]*DegradedStats
	workerFaults map[int][]faults.WorkerFault // per worker, sorted by Iter; nil when none is scheduled
	// held is, per dynamic-rate filter, the corrupt fault of an attempt the
	// data-driven loop rewound: the retry of that firing takes it again. Only
	// dynamic-rate firings read or write it.
	held map[string]faults.Fault
	// keep[n.ID] is the save point's copy of the fields of a filter whose
	// firing can write them (writesState) under a policy that rolls back,
	// allocated once; nil for every other node, whose state a rollback
	// leaves alone (it may be a Shared's proto).
	keep []*wfunc.State
}

// newSupervisor materializes the options against a graph. Returns nil when
// no supervision is requested, so engines keep their zero-cost fast path.
func newSupervisor(g *ir.Graph, o Options) (*supervisor, error) {
	if !o.supervised() {
		return nil, nil
	}
	inj, err := faults.NewInjector(o.Faults, filterNames(g))
	if err != nil {
		return nil, err
	}
	s := &supervisor{inj: inj, pol: o.OnError, stats: map[string]*DegradedStats{}, held: map[string]faults.Fault{},
		keep: make([]*wfunc.State, len(g.Nodes))}
	for _, n := range g.Nodes {
		if n.Kind == ir.NodeFilter && writesState(n) && o.OnError.For(n.Name).Action != faults.Fail {
			s.keep[n.ID] = n.Filter.Kernel.NewState()
		}
	}
	if o.Faults != nil && len(o.Faults.WorkerFaults) > 0 {
		s.workerFaults = map[int][]faults.WorkerFault{}
		for _, wf := range o.Faults.WorkerFaults {
			s.workerFaults[wf.Worker] = append(s.workerFaults[wf.Worker], wf)
		}
		for _, fs := range s.workerFaults {
			sort.Slice(fs, func(i, j int) bool { return fs[i].Iter < fs[j].Iter })
		}
	}
	return s, nil
}

// takeWorker consumes the first worker fault due at or before the given
// steady iteration. One-shot: a consumed fault never re-fires, so a crash
// rolled back to a checkpoint before its iteration does not crash again.
func (s *supervisor) takeWorker(worker int, iter int64) (faults.WorkerFault, bool) {
	if s == nil {
		return faults.WorkerFault{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fs := s.workerFaults[worker]
	if len(fs) == 0 || fs[0].Iter > iter {
		return faults.WorkerFault{}, false
	}
	f := fs[0]
	s.workerFaults[worker] = fs[1:]
	s.statFor(fmt.Sprintf("worker%d", worker)).Injected++
	return f, true
}

// statFor aggregates counters under the source-level filter name (all
// flattened instances of one filter share a row in the report).
func (s *supervisor) statFor(filter string) *DegradedStats {
	base := faults.BaseName(filter)
	st := s.stats[base]
	if st == nil {
		st = &DegradedStats{}
		s.stats[base] = st
	}
	return st
}

// take consults the injector for a fault due at this firing of n, recording
// it. A dynamic-rate filter first takes back the fault its rewound attempt
// held; a static-rate firing never looks there.
func (s *supervisor) take(n *ir.Node, firing int64) (faults.Fault, bool) {
	filter := n.Name
	if n.Filter.Kernel.Dynamic {
		s.mu.Lock()
		f, ok := s.held[filter]
		delete(s.held, filter)
		s.mu.Unlock()
		if ok {
			return f, true
		}
	}
	f, ok := s.inj.Next(filter, firing)
	if ok {
		s.mu.Lock()
		s.statFor(filter).Injected++
		if f.Kind == faults.Corrupt {
			s.statFor(filter).Corrupted++
		}
		s.mu.Unlock()
	}
	return f, ok
}

// note bumps one of name's recovery counters.
func (s *supervisor) note(name string, bump func(*DegradedStats)) {
	s.mu.Lock()
	bump(s.statFor(name))
	s.mu.Unlock()
}

// Stats returns a copy of the per-filter recovery counters.
func (s *supervisor) Stats() map[string]DegradedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]DegradedStats, len(s.stats))
	for k, v := range s.stats {
		out[k] = *v
	}
	return out
}

// Report renders the recovery counters for CLI output; empty when nothing
// degraded.
func (s *supervisor) Report() string {
	if s == nil {
		return ""
	}
	stats := s.Stats()
	var names []string
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		st := stats[n]
		if st == (DegradedStats{}) {
			continue
		}
		fmt.Fprintf(&b, "  %-24s injected=%d retries=%d skips=%d restarts=%d corrupted=%d crashes=%d slowed=%d\n",
			n, st.Injected, st.Retries, st.Skips, st.Restarts, st.Corrupted, st.Crashes, st.Slowed)
	}
	return b.String()
}

// fire wraps one filter firing in the fault injector and the filter's
// recovery policy; the engine contributes only what a wedged kernel looks
// like on it (coreHost). When the policy may need to roll the firing back
// (anything but Fail), the filter's ring positions, the messages it sends
// and, when its firing can write them, its fields are saved first;
// recovery rewinds to that save point, so a failed attempt leaves no trace.
// A corrupt fault marks the firing, once its work has survived, for the
// firing core's hook to overwrite what it pushed.
func (s *supervisor) fire(c *core, rt *nodeRT) error {
	n, name, rec := rt.node, rt.node.Name, c.rec
	pol := s.pol.For(name)
	rollback := pol.Action != faults.Fail
	var restore func()
	if rollback {
		restore = c.savePoint(rt, s.keep[n.ID])
	}
	fault, injected := s.take(n, rt.fired)
	if injected {
		traceFault(rec, n.ID, name, fault.Kind.String())
	}
	attempt := func(corrupt bool) (err error) {
		defer func() {
			if r := recover(); r != nil {
				if _, short := r.(wfunc.TapeFault); short && n.Filter.Kernel.Dynamic {
					// A dynamic-rate filter ran its input dry: the
					// data-driven loop rewinds the attempt, and retries the
					// firing with the same fault.
					if corrupt {
						s.mu.Lock()
						s.held[name] = fault
						s.mu.Unlock()
					}
					panic(r)
				}
				err = asExecError(name, rt.fired, r)
			}
		}()
		if err = c.work(rt); err == nil {
			rt.corrupt = corrupt
		}
		return err
	}
	var err error
	switch {
	case injected && fault.Kind == faults.Panic:
		err = &ExecError{Filter: name, Op: "injected panic", Iteration: rt.fired}
	case injected && fault.Kind == faults.Stall:
		if !rollback {
			if err := c.eng.park(rt); err != nil {
				return err
			}
		}
		// A recoverable policy (or an engine that cannot park) turns the
		// stall into a synchronous failure, so retry/skip/restart actually
		// recover instead of wedging the filter until the watchdog aborts.
		err = &ExecError{Filter: name, Op: "injected stall", Iteration: rt.fired,
			Err: fmt.Errorf("stall reported synchronously under the %s policy", pol.Action)}
	default:
		err = attempt(injected && fault.Kind == faults.Corrupt)
	}
	if err == nil {
		return nil
	}
	switch pol.Action {
	case faults.Retry:
		for a := 1; a <= pol.Retries; a++ {
			s.note(name, func(d *DegradedStats) { d.Retries++ })
			traceRecovery(rec, n.ID, name, "retry")
			if pol.Backoff > 0 {
				time.Sleep(time.Duration(a) * pol.Backoff)
			}
			restore()
			if err = attempt(false); err == nil {
				return nil
			}
		}
		return fmt.Errorf("exec: %d retries exhausted: %w", pol.Retries, err)
	case faults.Skip:
		restore()
		s.note(name, func(d *DegradedStats) { d.Skips++ })
		traceRecovery(rec, n.ID, name, "skip")
		skipFiring(n, rt.in, rt.out)
		return nil
	case faults.Restart:
		restore()
		st, serr := freshState(n)
		if serr != nil {
			return serr
		}
		rt.setState(st)
		s.note(name, func(d *DegradedStats) { d.Restarts++ })
		traceRecovery(rec, n.ID, name, "restart")
		if err = attempt(false); err != nil {
			return fmt.Errorf("exec: restart did not recover: %w", err)
		}
		return nil
	}
	return err
}

// skipFiring honors a filter's static rates without running its kernel:
// pop-rate items are consumed and discarded, push-rate zeros emitted.
func skipFiring(n *ir.Node, in, out *wfunc.Ring) {
	for i := 0; i < n.TotalPop(); i++ {
		in.Pop()
	}
	for i := 0; i < n.TotalPush(); i++ {
		out.Push(0)
	}
}

// freshState creates a filter's initial state (fields initialized, init
// function run): what an engine starts from, and what the Restart policy
// resets to.
func freshState(n *ir.Node) (*wfunc.State, error) {
	k := n.Filter.Kernel
	st := k.NewState()
	if k.Init != nil {
		env := wfunc.NewEnv(k.Init)
		env.State = st
		if err := wfunc.Exec(k.Init, env); err != nil {
			return nil, fmt.Errorf("init of %s: %w", n.Name, err)
		}
	}
	return st, nil
}
