package exec

import (
	"fmt"
	"time"

	"streamit/internal/ir"
	"streamit/internal/obs"
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

	chans []*channel
	nodes []*nodeRT
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
	// sup applies fault injection and recovery policies; nil when
	// unsupervised (the zero-overhead default).
	sup *supervisor

	// prof and rec are the observability hooks; nil when disabled (the
	// zero-overhead default). laneSched is the trace lane for steady
	// iterations; steadyIdx numbers them across RunSteady calls.
	prof      *obs.Profiler
	rec       *obs.Recorder
	laneSched int
	steadyIdx int64
}

// nodeRT is the per-node runtime state.
type nodeRT struct {
	node   *ir.Node
	state  *wfunc.State
	runner *workRunner
	send   *sender       // hoisted messenger (only for message-sending filters)
	print  func(float64) // hoisted print hook trampoline
	// override, when set, fires in place of the kernel's work function for
	// this engine instance only (see Engine.OverrideWork).
	override func(in, out wfunc.Tape)
	fired    int64
	// inT/outT are counting tape wrappers, set only when profiling.
	inT, outT wfunc.Tape
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

// tapeProgress returns the node's position on its progress tape: n(O) for
// producers, items consumed for sinks.
func (e *Engine) tapeProgress(n *ir.Node) int64 {
	if edge := n.OutEdge(); edge != nil {
		return e.chans[edge.ID].pushed
	}
	if edge := n.InEdge(); edge != nil {
		return e.chans[edge.ID].popped
	}
	return 0
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

// kernelState is the state a node's message handlers run against.
func (e *Engine) kernelState(n *ir.Node) *wfunc.State { return e.nodes[n.ID].state }

// RunInit executes the initialization schedule.
func (e *Engine) RunInit() error {
	if e.dynamic {
		return e.runDynamic(e.Sch.InitReps, true)
	}
	return e.runEntries(e.Sch.Init)
}

// RunSteady executes the steady-state schedule iters times.
func (e *Engine) RunSteady(iters int) error {
	if e.dynamic {
		target := make([]int, len(e.G.Nodes))
		for i, r := range e.Sch.Reps {
			target[i] = iters * r
		}
		if e.rec == nil {
			return e.runDynamic(target, false)
		}
		// Constraint-aware scheduling interleaves iterations, so the trace
		// gets one slice covering the whole batch.
		t0 := e.rec.Stamp()
		err := e.runDynamic(target, false)
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

func (e *Engine) runEntries(entries []sched.Entry) error {
	for _, en := range entries {
		for i := 0; i < en.Count; i++ {
			if err := e.fire(en.Node); err != nil {
				return err
			}
		}
	}
	return nil
}

// runDynamic fires nodes data-driven, respecting messaging constraints,
// until each node has fired extra[n] more times than at entry.
func (e *Engine) runDynamic(extra []int, isInit bool) error {
	order, err := e.G.TopoOrder()
	if err != nil {
		return err
	}
	target := make([]int64, len(e.G.Nodes))
	remaining := int64(0)
	for _, n := range e.G.Nodes {
		target[n.ID] = e.nodes[n.ID].fired + int64(extra[n.ID])
		remaining += int64(extra[n.ID])
	}
	for remaining > 0 {
		progress := int64(0)
		for _, n := range order {
			rt := e.nodes[n.ID]
			for rt.fired < target[n.ID] && e.canFire(n) {
				ok, err := e.constraintsAllow(n)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				if err := e.fire(n); err != nil {
					return err
				}
				progress++
			}
		}
		if progress == 0 {
			phase := "steady-state"
			if isInit {
				phase = "initialization"
			}
			return fmt.Errorf("messaging constraints are unsatisfiable: no progress possible during %s", phase)
		}
		remaining -= progress
	}
	return nil
}

// canFire checks input availability for one firing of n.
func (e *Engine) canFire(n *ir.Node) bool {
	for p, edge := range n.In {
		if edge == nil {
			continue
		}
		if e.chans[edge.ID].Len() < n.PeekPort(p) {
			return false
		}
	}
	return true
}

// fire executes one firing of n, delivering due messages per the paper's
// timing rules: downstream receivers get messages immediately before the
// firing that first sees the sender's effects; upstream receivers get them
// immediately after the firing that last affects the sender's data.
// Runtime panics (native-kernel bugs, buffer misuse) surface as structured
// *ExecError values naming the node, operation, and firing index.
func (e *Engine) fire(n *ir.Node) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = asExecError(n.Name, e.nodes[n.ID].fired, r)
		}
	}()
	return e.fireInner(n)
}

func (e *Engine) fireInner(n *ir.Node) error {
	if err := e.deliverDue(n, true); err != nil {
		return err
	}
	rt := e.nodes[n.ID]
	switch n.Kind {
	case ir.NodeFilter:
		if e.prof == nil && e.rec == nil {
			if err := e.fireFilter(rt); err != nil {
				return err
			}
		} else {
			start := time.Now()
			ferr := e.fireFilter(rt)
			d := time.Since(start)
			if e.prof != nil {
				e.prof.At(n.ID).AddWork(d)
			}
			if e.rec != nil {
				end := e.rec.Stamp()
				e.rec.Slice(n.ID, n.Name, "firing", end-d, end)
			}
			if ferr != nil {
				return ferr
			}
		}
	case ir.NodeSplitter:
		e.fireSplitter(n)
	case ir.NodeJoiner:
		e.fireJoiner(n)
	}
	rt.fired++
	e.Firings++
	if e.prof != nil {
		st := e.prof.At(n.ID)
		st.AddFiring()
		if n.Kind != ir.NodeFilter {
			profileSJ(st, n)
		}
	}
	return e.deliverDue(n, false)
}

func (e *Engine) fireFilter(rt *nodeRT) error {
	n := rt.node
	var inCh, outCh *channel
	if edge := n.InEdge(); edge != nil {
		inCh = e.chans[edge.ID]
	}
	if edge := n.OutEdge(); edge != nil {
		outCh = e.chans[edge.ID]
	}
	if e.sup != nil {
		return e.fireSupervised(rt, inCh, outCh)
	}
	return e.attemptFire(rt, inCh, outCh, false)
}

// tapesOf resolves the tapes a filter's work function sees: its channels,
// or the counting/tapping wrappers over them when set.
func (rt *nodeRT) tapesOf(inCh, outCh *channel) (in, out wfunc.Tape) {
	if inCh != nil {
		in = inCh
		if rt.inT != nil {
			in = rt.inT
		}
	}
	if outCh != nil {
		out = outCh
		if rt.outT != nil {
			out = rt.outT
		}
	}
	return in, out
}

// attemptFire executes one work invocation, converting panics and IL
// runtime errors into *ExecError. corrupt (an injected Corrupt fault)
// replaces every push with the corruption sentinel.
func (e *Engine) attemptFire(rt *nodeRT, inCh, outCh *channel, corrupt bool) (err error) {
	n := rt.node
	defer func() {
		if r := recover(); r != nil {
			err = asExecError(n.Name, rt.fired, r)
		}
	}()
	in, out := rt.tapesOf(inCh, outCh)
	if corrupt {
		out = corruptOut(out)
	}
	if rt.override != nil {
		rt.override(in, out)
		return nil
	}
	if n.Filter.WorkFn != nil {
		n.Filter.WorkFn(in, out, rt.state)
		return nil
	}
	var print func(float64)
	if e.Printer != nil {
		print = rt.print
	}
	var msg wfunc.Messenger
	if rt.send != nil {
		msg = rt.send
	}
	if err := rt.runner.run(in, out, msg, print); err != nil {
		return &ExecError{Filter: n.Name, Op: "work", Iteration: rt.fired, Err: err}
	}
	return nil
}

// fireSupervised hands one filter firing to the supervisor. The tape save
// point is a clone of the filter's rings; injected stalls report
// synchronously.
func (e *Engine) fireSupervised(rt *nodeRT, inCh, outCh *channel) error {
	f := &firing{n: rt.node, fired: rt.fired, state: &rt.state, runner: rt.runner}
	f.in, f.out = rt.tapesOf(inCh, outCh)
	if rt.send != nil {
		f.msgs = &e.teleport
	}
	f.work = func(corrupt bool) error { return e.attemptFire(rt, inCh, outCh, corrupt) }
	f.mark = func() func() {
		var inSave, outSave *channel
		if inCh != nil {
			inSave = inCh.clone()
		}
		if outCh != nil {
			outSave = outCh.clone()
		}
		return func() {
			if inCh != nil {
				inCh.restoreFrom(inSave)
			}
			if outCh != nil {
				outCh.restoreFrom(outSave)
			}
		}
	}
	return e.sup.fire(f, e.rec)
}

// SupervisionReport renders per-filter recovery counters (empty when the
// engine is unsupervised or nothing degraded).
func (e *Engine) SupervisionReport() string { return e.sup.Report() }

// Degraded returns per-filter recovery counters (nil when unsupervised).
func (e *Engine) Degraded() map[string]DegradedStats {
	if e.sup == nil {
		return nil
	}
	return e.sup.Stats()
}

func (e *Engine) fireSplitter(n *ir.Node) {
	in := e.chans[n.InEdge().ID]
	if n.SJ.Kind == ir.SJDuplicate {
		v := in.Pop()
		for _, edge := range n.Out {
			if edge != nil {
				e.chans[edge.ID].Push(v)
			}
		}
		return
	}
	for p, edge := range n.Out {
		w := n.SJ.Weights[p]
		for k := 0; k < w; k++ {
			v := in.Pop()
			if edge != nil {
				e.chans[edge.ID].Push(v)
			}
		}
	}
}

func (e *Engine) fireJoiner(n *ir.Node) {
	out := e.chans[n.OutEdge().ID]
	for p, edge := range n.In {
		w := n.SJ.Weights[p]
		for k := 0; k < w; k++ {
			out.Push(e.chans[edge.ID].Pop())
		}
	}
}

// State returns the mutable kernel state of a filter (for tests and
// examples that inspect fields).
func (e *Engine) State(f *ir.Filter) *wfunc.State {
	n := e.G.FilterNode[f]
	if n == nil {
		return nil
	}
	return e.nodes[n.ID].state
}
