// Package exec runs flattened StreamIt graphs. Two engines — the
// sequential engine (the oracle, with teleport messaging and MAX_LATENCY
// constraints on the schedule) and the mapped engine (worker goroutines
// over batched queues, every parallel plan) — fire their nodes through one
// firing core (fire.go): filters run their IL work functions (or native Go
// kernels), splitters and joiners route values, and teleport messages are
// delivered at the tape positions dictated by the information-wavefront
// semantics. Every edge is a wfunc.Ring, the one storage tape: the engines
// own only the placement of their rings, their progress counting and their
// outer loops. Programs with data-dependent rates run on the sequential
// engine built without a schedule, under a data-driven loop of their own
// (DynamicEngine).
package exec

import (
	"fmt"
	"time"

	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// Engine executes a flattened stream graph sequentially.
type Engine struct {
	G   *ir.Graph
	Sch *sched.Schedule
	// Backend is the work-function execution substrate chosen at
	// construction (bytecode VM by default).
	Backend Backend

	// core holds the node records, the supervisor and the observability
	// hooks, and fires every node.
	core
	chans []*wfunc.Ring
	// fp is the graph fingerprint every image is written and checked under.
	fp uint64

	// teleport holds the pending messages and latency constraints, and
	// delivers on the paper's timing rules around each firing.
	teleport

	// Printer receives values from println statements; nil discards.
	Printer func(node string, v float64)

	// Firings counts total node firings (for throughput metrics).
	Firings int64
	// dynamic is set when messaging requires constraint-aware scheduling.
	dynamic bool
	// cur is the node being fired, for blameFiring.
	cur *nodeRT

	// laneSched is the trace lane for steady iterations; steadyIdx numbers
	// them across RunSteady calls.
	laneSched int
	steadyIdx int64
}

// message is an in-flight teleport message.
type message struct {
	handler    string
	args       []float64
	target     int64 // delivery threshold on the receiver's output tape
	upstream   bool  // receiver is upstream of sender
	bestEffort bool
}

// constraint bounds how far a receiver may run ahead of a potential sender
// (paper equations mc1/mc2).
type constraint struct {
	sender   *ir.Node
	receiver *ir.Node
	latency  int
	upstream bool // receiver upstream of sender
}

// New flattens, verifies, and prepares prog for execution on the default
// (VM) backend.
func New(prog *ir.Program) (*Engine, error) {
	g, err := ir.Flatten(prog)
	if err != nil {
		return nil, err
	}
	s, err := sched.Compute(g)
	if err != nil {
		return nil, err
	}
	return NewFromGraphBackend(g, s, BackendVM)
}

// NewFromGraphBackend prepares an engine for an already-flattened graph on
// the given work-function backend.
func NewFromGraphBackend(g *ir.Graph, s *sched.Schedule, backend Backend) (*Engine, error) {
	return NewFromGraphOpts(g, s, Options{Backend: backend})
}

// NewFromGraphOpts is the full-option engine constructor: backend
// selection plus supervised execution (fault injection and per-kernel
// recovery policies). It builds a one-shot Shared bundle; callers that
// construct many engines over the same graph should build the Shared once
// (exec.NewShared) and stamp engines from it.
func NewFromGraphOpts(g *ir.Graph, s *sched.Schedule, opts Options) (*Engine, error) {
	sh, err := NewShared(g, s, opts.Backend)
	if err != nil {
		return nil, err
	}
	return sh.NewEngine(opts)
}

func collectSends(f *wfunc.Func) []*wfunc.Send {
	var out []*wfunc.Send
	var walk func(body []wfunc.Stmt)
	walk = func(body []wfunc.Stmt) {
		for _, s := range body {
			switch s := s.(type) {
			case *wfunc.Send:
				out = append(out, s)
			case *wfunc.If:
				walk(s.Then)
				walk(s.Else)
			case *wfunc.For:
				walk(s.Body)
			case *wfunc.While:
				walk(s.Body)
			}
		}
	}
	if f != nil {
		walk(f.Body)
	}
	return out
}

// progressTapeOf returns the tape that measures a node's execution progress
// for messaging purposes: its output tape, or — for sinks, which the paper's
// MAX_LATENCY example uses as endpoints — its input tape.
func progressTapeOf(n *ir.Node) (*ir.Edge, error) {
	if edge := n.OutEdge(); edge != nil {
		return edge, nil
	}
	if edge := n.InEdge(); edge != nil {
		return edge, nil
	}
	return nil, fmt.Errorf("%s has no tapes; it cannot be a messaging endpoint", n.Name)
}

// progressRateOf is the per-firing advance of the node's progress tape.
func progressRateOf(n *ir.Node) int64 {
	if n.OutEdge() != nil {
		return int64(n.TotalPush())
	}
	return int64(n.TotalPop())
}

// sinkMargin is the peek-pop window margin of a sink node whose progress is
// measured on its input tape.
func sinkMargin(n *ir.Node) int64 {
	if n.Kind == ir.NodeFilter {
		k := n.Filter.Kernel
		return int64(k.Peek - k.Pop)
	}
	return 0
}

// RunInit executes the initialization schedule.
func (e *Engine) RunInit() (err error) {
	defer e.blameFiring(&err)
	if e.dynamic {
		return e.runDataDriven(e.Sch.InitReps, 1, "initialization")
	}
	return e.runEntries(e.Sch.Init)
}

// RunSteady executes the steady-state schedule iters times.
func (e *Engine) RunSteady(iters int) (err error) {
	defer e.blameFiring(&err)
	if e.dynamic {
		if e.rec == nil {
			return e.runDataDriven(e.Sch.Reps, iters, "steady-state")
		}
		// Constraint-aware scheduling interleaves iterations, so the trace
		// gets one slice covering the whole batch.
		t0 := e.rec.Stamp()
		err = e.runDataDriven(e.Sch.Reps, iters, "steady-state")
		e.rec.Slice(e.laneSched, fmt.Sprintf("steady x%d", iters), "iteration", t0, e.rec.Stamp())
		return err
	}
	for k := 0; k < iters; k++ {
		var t0 time.Duration
		if e.rec != nil {
			t0 = e.rec.Stamp()
		}
		if err := e.runEntries(e.Sch.Steady); err != nil {
			return err
		}
		if e.rec != nil {
			e.steadyIdx++
			e.rec.Slice(e.laneSched, fmt.Sprintf("steady %d", e.steadyIdx), "iteration", t0, e.rec.Stamp())
		}
	}
	return nil
}

// Run executes init plus iters steady-state iterations.
func (e *Engine) Run(iters int) error {
	if err := e.RunInit(); err != nil {
		return err
	}
	return e.RunSteady(iters)
}

// blameFiring is the sequential engine's one recover on the firing path,
// deferred by RunInit and RunSteady — none is installed per firing. A
// runtime panic (a native-kernel bug, buffer misuse) unwinds to it and
// surfaces as an *ExecError naming the node being fired, the operation and
// the firing index.
func (e *Engine) blameFiring(err *error) {
	if r := recover(); r != nil {
		*err = blame(r, e.cur, "sequential engine")
	}
}

// runEntries fires one pass of a static schedule phase, delivering due
// teleport messages around each firing.
func (e *Engine) runEntries(entries []sched.Entry) error {
	for _, en := range entries {
		rt := e.nodes[en.Node.ID]
		e.cur = rt
		for i := 0; i < en.Count; i++ {
			if err := e.step(rt); err != nil {
				return err
			}
			e.Firings++
		}
	}
	return nil
}

// runDataDriven fires nodes through the core's constraint-aware data-driven
// loop until each has fired iters*reps[n] more times than at entry.
func (e *Engine) runDataDriven(reps []int, iters int, phase string) error {
	topo, err := e.G.TopoOrder()
	if err != nil {
		return err
	}
	order := make([]*nodeRT, len(topo))
	goal := make([]int64, len(topo))
	for i, n := range topo {
		order[i] = e.nodes[n.ID]
		goal[i] = order[i].fired + int64(iters*reps[n.ID])
	}
	fired, err := e.dataDriven(order, goal, phase, &e.cur)
	e.Firings += fired
	return err
}

// inRing implements coreHost: an edge is one ring, read by its consumer.
func (e *Engine) inRing(edge *ir.Edge) *wfunc.Ring { return e.chans[edge.ID] }

// outRing implements coreHost: the same ring, written by its producer.
func (e *Engine) outRing(edge *ir.Edge) *wfunc.Ring { return e.chans[edge.ID] }

// park implements coreHost. The engine is single-threaded, with no
// watchdog to notice a wedged filter, so it never parks: an injected stall
// reports synchronously.
func (e *Engine) park(*nodeRT) error { return nil }
