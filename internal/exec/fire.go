package exec

import (
	"fmt"
	"time"

	"streamit/internal/faults"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/vm"
	"streamit/internal/wfunc"
)

// The firing core: how a node fires, stated once for every engine. The
// sequential and mapped engines differ in where their rings sit, in how
// they count progress and in their outer loops. What a firing is — a
// filter's work dispatch (override, native WorkFn, then the work runner)
// under the supervisor when one is attached, a splitter's or joiner's
// routing, the one per-firing hook that profiles, taps and corrupts a
// committed firing, a supervised firing's save point, and the one
// data-driven loop that hosts teleport messaging and dynamic rates — is
// this file.

// nodeRT is one node's runtime record, the same under every engine. It
// outlives epochs, re-plans and restores; only the mapped engine rebinds its
// rings, once per worker topology.
type nodeRT struct {
	node   *ir.Node
	state  *wfunc.State
	runner *workRunner
	// fired counts completed firings: the node's firing index (the fault
	// injector's key, an ExecError's Iteration).
	fired int64
	// override, when set, fires in place of the kernel's work function for
	// this engine instance only (OverrideWork).
	override func(in, out wfunc.Tape)
	// msg is the messenger of a filter whose work function sends teleport
	// messages; print is the sequential engine's println hook.
	msg   *sender
	print func(float64)
	// pst is the node's profiler slot; nil unless profiling. tap receives
	// what each committed firing pops (TapSink); nil unless tapped.
	pst *obs.FilterStats
	tap func(float64)
	// corrupt marks the firing in progress as carrying an injected corrupt
	// fault that its work survived: the hook overwrites what it pushed.
	corrupt bool
	// in and out are a filter's rings, nil where it has no such edge; tin
	// and tout are the same rings as the tapes its work runs on — nil
	// interfaces where there is no ring, which the backends test for.
	in, out   *wfunc.Ring
	tin, tout wfunc.Tape
}

// coreHost is an engine as the firing core sees it.
type coreHost interface {
	// inRing and outRing are edge e's ring at its consumer's and at its
	// producer's end.
	inRing(e *ir.Edge) *wfunc.Ring
	outRing(e *ir.Edge) *wfunc.Ring
	// park is an injected stall under the fail policy: block like a wedged
	// kernel until the watchdog aborts the run, then unwind. An engine with
	// no watchdog returns nil, and the stall is reported synchronously.
	park(rt *nodeRT) error
}

// core is the firing core every engine embeds: the node records, the
// supervisor, the observability hooks, and the engine behind them.
type core struct {
	eng   coreHost
	nodes []*nodeRT
	// sup applies fault injection and recovery policies; nil when
	// unsupervised (the zero-overhead default).
	sup *supervisor
	// prof and rec are the observability hooks; nil when disabled.
	prof *obs.Profiler
	rec  *obs.Recorder
	// msgs is the teleport-messaging runtime filters send through and the
	// data-driven loop delivers from.
	msgs *teleport
	// spec is the data-driven loop's speculation state by node ID, on an
	// engine that runs the loop (nil elsewhere).
	spec []speculation
}

// speculation is a node's state across data-driven attempts: on marks a
// speculative filter (dynamic rate, reading an input), wait is the input
// count it waits for after running dry, and keep a stateful one's fields.
type speculation struct {
	on   bool
	wait int64
	keep *wfunc.State
}

// bind points a filter's tapes at the engine's rings for its edges.
func (rt *nodeRT) bind(h coreHost) {
	n := rt.node
	if n.Kind != ir.NodeFilter {
		return
	}
	rt.in, rt.out, rt.tin, rt.tout = nil, nil, nil, nil
	if e := n.InEdge(); e != nil {
		rt.in = h.inRing(e)
		rt.tin = rt.in
	}
	if e := n.OutEdge(); e != nil {
		rt.out = h.outRing(e)
		rt.tout = rt.out
	}
}

// setState installs a replacement kernel state (a rollback's saved copy, a
// restart's fresh one) in the record and its runner.
func (rt *nodeRT) setState(st *wfunc.State) {
	rt.state = st
	if rt.runner != nil {
		rt.runner.setState(st)
	}
}

// ringMark is a filter's position on its rings: where its next pop and its
// next push land. Two marks bound the span of items a firing moved.
type ringMark struct{ popped, pushed int64 }

func (rt *nodeRT) mark() (m ringMark) {
	if rt.in != nil {
		m.popped = rt.in.Popped
	}
	if rt.out != nil {
		m.pushed = rt.out.Pushed
	}
	return m
}

// savePoint marks what a filter firing may change, for a rollback: its ring
// positions (a ring that grows keeps every item at its position's slot), the
// teleport messages it has sent and, copied into keep when that is set, its
// fields. The returned restore rewinds all three, as often as it is called.
func (c *core) savePoint(rt *nodeRT, keep *wfunc.State) (restore func()) {
	at := rt.mark()
	var sent []int
	if rt.msg != nil {
		sent = c.msgs.mark()
	}
	if keep != nil {
		copyState(keep, rt.state)
	}
	return func() {
		if rt.in != nil {
			rt.in.Popped = at.popped
		}
		if rt.out != nil {
			rt.out.Pushed = at.pushed
		}
		if rt.msg != nil {
			c.msgs.rewind(sent)
		}
		if keep != nil {
			copyState(rt.state, keep)
		}
	}
}

// blame converts a panic recovered where a firing loop runs into an
// *ExecError naming cur, the node being fired — who, when there is none.
// One recover per loop, not per firing: a firing that panics unwinds to it.
func blame(r any, cur *nodeRT, who string) *ExecError {
	if cur == nil {
		return asExecError(who, 0, r)
	}
	return asExecError(cur.node.Name, cur.fired, r)
}

// fire runs one firing of rt and advances its firing index: a splitter's
// or joiner's routing, or a filter's work — watched when anything is
// attached to it. A plain filter firing is fire → work → runner, no frame
// between.
func (c *core) fire(rt *nodeRT) error {
	n := rt.node
	var err error
	switch {
	case n.Kind != ir.NodeFilter:
		route(n, c.eng)
		if rt.pst != nil {
			profileSJ(rt.pst, n)
			rt.pst.AddFiring()
		}
	case rt.pst == nil && rt.tap == nil && c.sup == nil && c.rec == nil:
		err = c.work(rt)
	default:
		err = c.watched(rt)
	}
	if err != nil {
		return err
	}
	rt.fired++
	return nil
}

// plainVM is the VM frame of a plain VM filter — nothing attached, no
// override, no native WorkFn, no sends — whose firings may share one VM
// entry; nil for any other node.
func (c *core) plainVM(rt *nodeRT) *vm.Machine {
	r := rt.runner
	if r == nil || rt.override != nil || rt.msg != nil || rt.pst != nil || rt.tap != nil || c.sup != nil || c.rec != nil {
		return nil
	}
	return r.mach
}

// fireN fires rt n times. A plain VM filter, m its frame (plainVM), runs
// all n in one VM entry, which counts each firing that completes in
// rt.fired, so a fault names the firing fire would; any other node fires n
// times through fire.
func (c *core) fireN(rt *nodeRT, m *vm.Machine, n int64) error {
	if m != nil {
		return rt.vmErr(m.RunN(rt.tin, rt.tout, n, &rt.fired, nil, rt.print))
	}
	for ; n > 0; n-- {
		if err := c.fire(rt); err != nil {
			return err
		}
	}
	return nil
}

// fireHeld fires rt's share of a block of iters steady iterations, reps
// firings each, both engines' blocks: its input ring's visible end held at
// iteration T (from 1) to min(top, first+T·per), what a run of one
// iteration at a time has buffered when rt fires its T-th, so a firing that
// reads past its share fails at the firing that run names. per 0 holds
// nothing (a one-iteration run). A plain VM row kernel's share is one
// Machine.RunHeld entry, four firings at a time; any other filter's is one
// fireN per iteration, or one in all when nothing is held.
func (c *core) fireHeld(rt *nodeRT, iters, reps, per, first int64) error {
	in, m := rt.in, c.plainVM(rt)
	if m != nil && in != nil && rt.out != nil && iters*reps >= 4 && m.RowKernel() {
		if per == 0 {
			first = in.Pushed
		}
		return rt.vmErr(m.RunHeld(in, rt.out, iters, reps, per, first, &rt.fired, rt.print))
	}
	if in == nil || per == 0 {
		return c.fireN(rt, m, iters*reps)
	}
	top := in.Pushed
	defer func() { in.Pushed = top }()
	for T := int64(1); T <= iters; T++ {
		in.Pushed = min(top, first+T*per)
		if err := c.fireN(rt, m, reps); err != nil {
			return err
		}
	}
	return nil
}

// vmErr wraps a VM entry's error as the work fault of rt's current firing.
func (rt *nodeRT) vmErr(err error) error {
	if err != nil {
		return &ExecError{Filter: rt.node.Name, Op: "work", Iteration: rt.fired, Err: err}
	}
	return nil
}

// watched is a filter firing with something attached: its work — handed to
// the supervisor when there is one — timed for the profile and the trace
// when either is on, then, once the firing has committed, the per-firing
// hook over the span of items it moved. A rolled-back or rewound attempt
// leaves no span: it reaches no tap, no profile count and no corruption.
// No tape blocks inside a firing: the mapped engine books its stalls
// between firings.
func (c *core) watched(rt *nodeRT) error {
	at := rt.mark()
	timed := rt.pst != nil || c.rec != nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	var err error
	if c.sup != nil {
		err = c.sup.fire(c, rt)
	} else {
		err = c.work(rt)
	}
	if timed {
		d := time.Since(start)
		if rt.pst != nil {
			rt.pst.AddWork(d)
		}
		if c.rec != nil {
			end := c.rec.Stamp()
			c.rec.Slice(rt.node.ID, rt.node.Name, "firing", end-d, end)
		}
	}
	if err == nil {
		rt.committed(at)
	}
	return err
}

// committed is the per-firing hook, run after a committed firing that
// started at mark at: the tap receives the popped span, a corrupt fault
// overwrites the pushed span, and the profile counts the firing, its
// traffic as position deltas (exact for dynamic rates too), its declared
// peek window, and its out ring's occupancy.
func (rt *nodeRT) committed(at ringMark) {
	in, out := rt.in, rt.out
	if rt.tap != nil {
		for k := at.popped; k < in.Popped; k++ {
			rt.tap(*in.At(k))
		}
	}
	if rt.corrupt {
		rt.corrupt = false
		for k := at.pushed; out != nil && k < out.Pushed; k++ {
			*out.At(k) = faults.CorruptValue
		}
	}
	if st := rt.pst; st != nil {
		st.AddFiring()
		if in != nil {
			st.AddPops(in.Popped - at.popped)
			st.AddPeeks(int64(rt.node.Filter.Kernel.Peek))
		}
		if out != nil {
			st.AddPushes(out.Pushed - at.pushed)
			st.NoteOccupancy(int64(out.Len()))
		}
	}
}

// work runs a filter's kernel once on its tapes: the override when one is
// set, else the native WorkFn, else the work runner. Panics unwind to the
// caller's recover — the loop's when unsupervised, the supervisor's
// attempt otherwise.
func (c *core) work(rt *nodeRT) error {
	n := rt.node
	if rt.override != nil {
		rt.override(rt.tin, rt.tout)
		return nil
	}
	if n.Filter.WorkFn != nil {
		n.Filter.WorkFn(rt.tin, rt.tout, rt.state)
		return nil
	}
	var msg wfunc.Messenger
	if rt.msg != nil {
		msg = rt.msg
	}
	if err := rt.runner.run(rt.tin, rt.tout, msg, rt.print); err != nil {
		return &ExecError{Filter: n.Name, Op: "work", Iteration: rt.fired, Err: err}
	}
	return nil
}

// route is one splitter or joiner firing over the engine's rings: the one
// routing body, whose traffic sjCounts states as arithmetic. A splitter's
// nil out port consumes its share and produces nothing; a joiner's nil in
// port is skipped.
func route(n *ir.Node, h coreHost) {
	if n.Kind == ir.NodeJoiner {
		out := h.outRing(n.OutEdge())
		for p, e := range n.In {
			if e == nil {
				continue
			}
			in := h.inRing(e)
			for k := n.SJ.Weights[p]; k > 0; k-- {
				out.Push(in.Pop())
			}
		}
		return
	}
	in := h.inRing(n.InEdge())
	if n.SJ.Kind == ir.SJDuplicate {
		v := in.Pop()
		for _, e := range n.Out {
			if e != nil {
				h.outRing(e).Push(v)
			}
		}
		return
	}
	for p, e := range n.Out {
		k := n.SJ.Weights[p]
		if e == nil {
			for ; k > 0; k-- {
				in.Pop()
			}
			continue
		}
		out := h.outRing(e)
		for ; k > 0; k-- {
			out.Push(in.Pop())
		}
	}
}

// step is one firing with teleport delivery on the paper's timing: due
// downstream and best-effort messages immediately before, upstream ones
// immediately after.
func (c *core) step(rt *nodeRT) error {
	if err := c.msgs.deliverDue(rt.node, true); err != nil {
		return err
	}
	if err := c.fire(rt); err != nil {
		return err
	}
	return c.msgs.deliverDue(rt.node, false)
}

// goal is where a run of the data-driven loop stops, as data: when every
// node has fired fires[id] times (a schedule phase under messaging
// constraints, a stage cluster's iteration; sinks nil), or when the sinks'
// input rings have been popped items times in all (dynamic rates; fires
// nil, every node's goal unbounded). ahead is how many items an output ring
// holds before its producer waits, 0 for no limit.
type goal struct {
	fires []int64
	sinks []*wfunc.Ring
	items int64
	ahead int
}

// short reports whether rt has fired fewer times than g asks of it.
func (g *goal) short(rt *nodeRT) bool { return g.fires == nil || rt.fired < g.fires[rt.node.ID] }

// dataDriven is the one data-driven loop (the sequential engine's runs
// under messaging constraints and without a schedule, the mapped engine's
// stage clusters): topological passes over nodes, each attempted while it
// is short of its goal and blocker finds nothing in its way, until g is
// met. A rewind is progress too — it raises the filter's wait above its
// input, which may lift its producer's full ring, and cannot repeat without
// new input — so only a pass with neither is a deadlock, reported for
// engine. It returns the firings made; *cur is the node being fired.
func (c *core) dataDriven(nodes []*nodeRT, g goal, engine string, cur **nodeRT) (int64, error) {
	var fired int64
	for g.sinks == nil || consumed(g.sinks) < g.items {
		progressed, done := false, true
		for _, rt := range nodes {
			for g.short(rt) {
				e, _, _, err := c.blocker(rt, g.ahead)
				if err != nil {
					return fired, err
				}
				if e != nil {
					break
				}
				*cur = rt
				k, err := c.attempt(rt)
				if err != nil {
					return fired, err
				}
				fired, progressed = fired+k, true
			}
			done = done && !g.short(rt)
		}
		if done {
			break
		}
		if !progressed {
			return fired, c.stuck(g, engine)
		}
	}
	return fired, nil
}

func consumed(sinks []*wfunc.Ring) (n int64) {
	for _, r := range sinks {
		n += r.Popped
	}
	return n
}

// blocker returns the edge rt cannot fire for, the node it waits on and
// how, nil when it can fire: an input short of its peek window, the input a
// speculative filter waits on after a rewind, an output ring holding ahead
// items (ahead > 0) whose consumer waits for no more, or a messaging
// constraint (mc1/mc2), waited on along its sender's progress tape.
func (c *core) blocker(rt *nodeRT, ahead int) (*ir.Edge, *ir.Node, waitState, error) {
	n := rt.node
	for p, e := range n.In {
		if e == nil {
			continue
		}
		if r := c.eng.inRing(e); r.Len() < n.PeekPort(p) || r.Pushed < c.spec[n.ID].wait {
			return e, e.Src, wsWaitRecv, nil
		}
	}
	for _, e := range n.Out {
		if e == nil || ahead == 0 {
			continue
		}
		if r := c.eng.outRing(e); r.Len() >= ahead && r.Pushed >= c.spec[e.Dst.ID].wait {
			return e, e.Dst, wsWaitSend, nil
		}
	}
	k, err := c.msgs.blocking(n)
	if k == nil || err != nil {
		return nil, nil, wsRunning, err
	}
	return k.tapeA, k.sender, wsWaitMsg, nil
}

// attempt fires rt once through step and returns the firings it committed,
// 0 or 1. A speculative filter fires under a save point (savePoint: its
// rings, and its fields when its work writes them). An attempt that runs
// its input dry is rewound, leaving a trace instant and nothing in the
// profile or at a tap (the per-firing hook sees committed firings only),
// and the filter waits until its input has grown by the items it was
// short, so no attempt repeats without new input.
func (c *core) attempt(rt *nodeRT) (fired int64, err error) {
	s := &c.spec[rt.node.ID]
	if !s.on {
		return 1, c.step(rt)
	}
	restore := c.savePoint(rt, s.keep)
	defer func() {
		if r := recover(); r != nil {
			f, short := r.(wfunc.TapeFault)
			if !short || f.Short == 0 {
				panic(r)
			}
			restore()
			s.wait = rt.in.Pushed + int64(f.Short)
			traceRecovery(c.rec, rt.node.ID, rt.node.Name, "rewind")
			fired, err = 0, nil
		}
	}()
	return 1, c.step(rt)
}

// stuck reports a pass of the data-driven loop that neither fired nor
// rewound: every node short of its goal waits on what blocker names. Only
// the sequential engine's rings fill (ahead > 0), where inRing is outRing.
func (c *core) stuck(g goal, engine string) *DeadlockError {
	return deadlockReport(engine, 0, c.msgs.g, func(n *ir.Node) (FilterStatus, int, bool) {
		rt := c.nodes[n.ID]
		if !g.short(rt) {
			return FilterStatus{}, -1, false
		}
		e, on, state, _ := c.blocker(rt, g.ahead)
		return FilterStatus{Worker: -1, State: waitStates[state], Edge: e.String(), Buffered: c.eng.inRing(e).Len()}, on.ID, true
	})
}

// tapeProgress is a node's position on its progress tape, read live off
// the ring — n(O) for producers, items consumed for sinks — so a send in
// the middle of a firing sees the pushes made so far, and a rollback
// rewinds it with the ring.
func (c *core) tapeProgress(n *ir.Node) int64 {
	if e := n.OutEdge(); e != nil {
		return c.eng.outRing(e).Pushed
	}
	if e := n.InEdge(); e != nil {
		return c.eng.inRing(e).Popped
	}
	return 0
}

// kernelState is the state a node's message handlers run against.
func (c *core) kernelState(n *ir.Node) *wfunc.State { return c.nodes[n.ID].state }

// filter resolves a flattened instance name to its filter's record.
func (c *core) filter(name string) *nodeRT {
	for _, rt := range c.nodes {
		if rt.node.Kind == ir.NodeFilter && rt.node.Name == name {
			return rt
		}
	}
	return nil
}

// TapSink makes fn observe every item the named filter pops, in firing
// order: the per-firing hook hands it each committed firing's popped span,
// so a firing rolled back and retried under a recovery policy is observed
// once. Filters with no input tape (sources) are rejected. A tap survives
// checkpoint restores and re-plans. Call before running.
func (c *core) TapSink(name string, fn func(float64)) error {
	rt := c.filter(name)
	if rt == nil {
		return fmt.Errorf("exec: tap target %q is not a filter in the graph", name)
	}
	if rt.node.InEdge() == nil {
		return fmt.Errorf("exec: tap target %q has no input tape", name)
	}
	rt.tap = fn
	return nil
}

// Profile returns the engine's profiler (nil unless Options.Profile).
func (c *core) Profile() *obs.Profiler { return c.prof }

// TraceRecorder returns the engine's trace recorder (nil unless attached).
func (c *core) TraceRecorder() *obs.Recorder { return c.rec }

// SupervisionReport renders per-filter recovery counters (empty when the
// engine is unsupervised or nothing degraded).
func (c *core) SupervisionReport() string { return c.sup.Report() }

// Degraded returns per-filter recovery counters (nil when unsupervised).
func (c *core) Degraded() map[string]DegradedStats {
	if c.sup == nil {
		return nil
	}
	return c.sup.Stats()
}
