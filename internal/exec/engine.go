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
// engine built without a schedule (Engine.RunItems), through the same
// data-driven loop that runs a schedule under messaging constraints.
package exec

import (
	"errors"
	"fmt"
	"math"
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
	// protos is the Shared's: a state that is its node's proto is shared.
	protos []*wfunc.State

	// teleport holds the pending messages and latency constraints, and
	// delivers on the paper's timing rules around each firing.
	teleport

	// Printer receives values from println statements; nil discards.
	Printer func(node string, v float64)

	// Firings counts total node firings (for throughput metrics).
	Firings int64
	// constrained is set when messaging constraints (mc1/mc2) need the
	// data-driven loop, sends when some filter sends teleport messages.
	constrained, sends bool
	// order is the nodes in topological order for the data-driven loop (nil
	// when unused). Without a schedule RunItems counts the sinks' input
	// rings, and producers wait at ahead items (4096; only tests lower it).
	order []*nodeRT
	sinks []*wfunc.Ring
	ahead int
	// cur is the node the data-driven loop fires, for blameFiring.
	cur *nodeRT

	// laneSched is the trace lane for steady iterations; steadyIdx numbers
	// them across RunSteady calls.
	laneSched int
	steadyIdx int64

	// block is how many steady iterations RunSteady fires per entry at
	// once (blockOf); first, allocated by the first block of several, is
	// where each steady entry's input ring ended when the block began.
	block int64
	first []int64
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
// (paper equations mc1/mc2). tapeA and tapeB are the sender's and the
// receiver's progress tapes, pushA and pushB their advance per firing.
type constraint struct {
	sender, receiver *ir.Node
	latency          int
	upstream         bool // receiver upstream of sender
	tapeA, tapeB     *ir.Edge
	pushA, pushB     int64
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

// progressTapeOf returns the tape that measures a node's execution progress
// for messaging purposes: its output tape, or — for sinks, which the paper's
// MAX_LATENCY example uses as endpoints — its input tape; nil for a node
// with no tapes, which deriveConstraints refuses as an endpoint.
func progressTapeOf(n *ir.Node) *ir.Edge {
	if edge := n.OutEdge(); edge != nil {
		return edge
	}
	return n.InEdge()
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

// errNoSchedule is what a schedule-less engine's schedule runs return.
var errNoSchedule = errors.New("exec: engine has no schedule (dynamic rates); run it with RunItems")

// RunInit executes the initialization schedule.
func (e *Engine) RunInit() (err error) {
	if e.Sch == nil {
		return errNoSchedule
	}
	defer e.blameFiring(&err)
	return e.runEntries(e.Sch.Init, e.Sch.InitReps, 1)
}

// RunSteady executes the steady-state schedule iters times, in blocks of
// up to e.block iterations — one with a Printer (println order across
// filters is observable) or when filters send teleport messages. A block
// fires each entry's share at once (core.fireHeld) and faults where one
// iteration at a time would (runEntries, Iterations); a trace gets one
// slice per block, "steady T xN" for the N iterations from T.
func (e *Engine) RunSteady(iters int) (err error) {
	if e.Sch == nil {
		return errNoSchedule
	}
	defer e.blameFiring(&err)
	k := e.block
	switch {
	case e.constrained:
		k = int64(iters) // the data-driven loop interleaves iterations
	case e.Printer != nil || e.sends:
		k = 1
	}
	for done := int64(0); done < int64(iters); {
		n := min(k, int64(iters)-done)
		var t0 time.Duration
		if e.rec != nil {
			t0 = e.rec.Stamp()
		}
		if err := e.runEntries(e.Sch.Steady, e.Sch.Reps, n); err != nil {
			return err
		}
		done += n
		if e.rec != nil {
			e.rec.Slice(e.laneSched, fmt.Sprintf("steady %d x%d", e.steadyIdx+1, n), "iteration", t0, e.rec.Stamp())
			e.steadyIdx += n
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

// blameFiring is the recover of the data-driven runs (fireEntry holds a
// static schedule's), deferred by RunInit, RunSteady and RunItems: a
// runtime panic unwinds to it and surfaces as an *ExecError naming the
// node being fired, the operation and the firing index.
func (e *Engine) blameFiring(err *error) {
	if r := recover(); r != nil {
		*err = blame(r, e.cur, "sequential engine")
	}
}

// runEntries fires n iterations of a static schedule phase, entry by
// entry: each entry's share of all n at once (core.fireHeld), its filter's
// input held per iteration from where its ring ended when the pass began,
// or one step at a time, with delivery around each, when some filter sends
// teleport messages. A block faults as one iteration at a time would: when
// an entry faults in its j-th iteration, every later entry fires only the
// first j-1, and a fault among those wins, as that run meets it first.
// Under messaging constraints the data-driven loop fires each node
// reps[id] times per iteration instead.
func (e *Engine) runEntries(entries []sched.Entry, reps []int, n int64) (err error) {
	if e.constrained {
		return e.runDataDriven(reps, n)
	}
	if n > 1 {
		if e.first == nil {
			e.first = make([]int64, len(entries))
		}
		for i, en := range entries {
			if in := e.nodes[en.Node.ID].in; in != nil {
				e.first[i] = in.Pushed
			}
		}
	}
	for i, done := 0, n; i < len(entries) && done > 0; i++ {
		en := entries[i]
		rt, k, per, first := e.nodes[en.Node.ID], int64(en.Count), int64(0), int64(0)
		if n > 1 {
			per, first = perIteration(e.Sch, en.Node), e.first[i]
		}
		from := rt.fired
		if ferr := e.fireEntry(rt, done, k, per, first); ferr != nil {
			err, done = ferr, (rt.fired-from)/k
		}
	}
	return err
}

// fireEntry fires rt's share of iters iterations, reps firings each
// (fireHeld), or step by step when filters send messages. It holds one
// recover per entry, none per firing: a runtime panic surfaces as an
// *ExecError naming rt, and Firings counts the firings that completed.
func (e *Engine) fireEntry(rt *nodeRT, iters, reps, per, first int64) (err error) {
	from := rt.fired
	defer func() {
		e.Firings += rt.fired - from
		if r := recover(); r != nil {
			err = blame(r, rt, "sequential engine")
		}
	}()
	if e.sends {
		for k := iters * reps; k > 0 && err == nil; k-- {
			err = e.step(rt)
		}
		return err
	}
	return e.fireHeld(rt, iters, reps, per, first)
}

// Iterations is how many steady iterations every node has completed, read
// off the firing counts (which a restore sets): after a RunSteady that
// faulted, the iterations before the one it faulted in. 0 without a
// schedule.
func (e *Engine) Iterations() int64 {
	if e.Sch == nil {
		return 0
	}
	done := int64(math.MaxInt64)
	for id, rt := range e.nodes {
		if r := int64(e.Sch.Reps[id]); r > 0 {
			done = min(done, (rt.fired-int64(e.Sch.InitReps[id]))/r)
		}
	}
	return done
}

// blockOf is the steady iterations the sequential engine fires per entry
// at once: one on a feedback edge (a loop's delay bounds how far its
// members run ahead) or when a node fires in several steady entries, else
// StageBatch, cut so that a block moves at most blockItems items.
func blockOf(g *ir.Graph, s *sched.Schedule) int64 {
	items := 0
	for _, edge := range g.Edges {
		if edge.Back {
			return 1
		}
		items += s.Reps[edge.Src.ID] * edge.Src.PushPort(edge.SrcPort)
	}
	seen := make([]bool, len(g.Nodes))
	for _, en := range s.Steady {
		if seen[en.Node.ID] {
			return 1
		}
		seen[en.Node.ID] = true
	}
	return int64(max(1, min(StageBatch, blockItems/max(items, 1))))
}

// blockItems bounds a sequential block's ring traffic: 32 KiB of float64
// items, an L1 data cache, the budget the StreamIt compiler's execution
// scaling sizes its factor by.
const blockItems = 4096

// perIteration is the items n's input edge receives per steady iteration,
// 0 for a node without one.
func perIteration(s *sched.Schedule, n *ir.Node) int64 {
	if edge := n.InEdge(); edge != nil {
		return int64(s.Reps[edge.Src.ID] * edge.Src.PushPort(edge.SrcPort))
	}
	return 0
}

// runDataDriven fires nodes through the core's data-driven loop until each
// has fired iters*reps[id] more times than at entry.
func (e *Engine) runDataDriven(reps []int, iters int64) error {
	fires := make([]int64, len(e.nodes))
	for id, rt := range e.nodes {
		fires[id] = rt.fired + iters*int64(reps[id])
	}
	fired, err := e.dataDriven(e.order, goal{fires: fires}, "sequential", &e.cur)
	e.Firings += fired
	return err
}

// RunItems runs a schedule-less engine (dynamic rates) until its sinks
// have consumed at least n more items and returns how many they consumed,
// up to a pass's worth more: producers run up to ahead items in front.
// Nodes fire in topological passes on one thread, so two runs fire alike.
func (e *Engine) RunItems(n int64) (items int64, err error) {
	if e.Sch != nil {
		return 0, errors.New("exec: RunItems runs an engine built without a schedule; use Run")
	}
	defer e.blameFiring(&err)
	start := consumed(e.sinks)
	fired, err := e.dataDriven(e.order, goal{sinks: e.sinks, items: start + n, ahead: e.ahead}, "sequential", &e.cur)
	e.Firings += fired
	return consumed(e.sinks) - start, err
}

// inRing implements coreHost: an edge is one ring, read by its consumer.
func (e *Engine) inRing(edge *ir.Edge) *wfunc.Ring { return e.chans[edge.ID] }

// outRing implements coreHost: the same ring, written by its producer.
func (e *Engine) outRing(edge *ir.Edge) *wfunc.Ring { return e.chans[edge.ID] }

// park implements coreHost. The engine is single-threaded, with no
// watchdog to notice a wedged filter, so it never parks: an injected stall
// reports synchronously.
func (e *Engine) park(*nodeRT) error { return nil }
