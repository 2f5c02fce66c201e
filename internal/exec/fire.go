package exec

import (
	"fmt"
	"time"

	"streamit/internal/faults"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/wfunc"
)

// The firing core: how a node fires, stated once for every engine. The
// sequential and mapped engines differ in where their rings sit, in how
// they count progress and in their outer loops; the dynamic engine is the
// sequential one with its own outer loop. What a firing is — a filter's
// work dispatch (override, native WorkFn, then the work runner) under the
// supervisor when one is attached, a splitter's or joiner's routing, the
// one per-firing hook that profiles, taps and corrupts a committed firing,
// a supervised firing's save point, and the constraint-aware data-driven
// loop that hosts teleport messaging — is this file.

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

// dataDriven is the constraint-aware data-driven loop, the sequential
// engine's schedule under messaging constraints and the mapped engine's
// stage clusters: topological passes over nodes, firing each — with
// delivery around it — while it is short of its goal, has input on every
// port, and is allowed by the messaging constraints (mc1/mc2), until every
// node reaches goal[i]. It returns the firings it made; *cur is the node
// being fired, for the caller's recover. phase names the schedule phase a
// pass that cannot move is reported in.
func (c *core) dataDriven(nodes []*nodeRT, goal []int64, phase string, cur **nodeRT) (int64, error) {
	var fired int64
	for {
		progressed, done := false, true
		for i, rt := range nodes {
			for rt.fired < goal[i] && c.starved(rt.node) == nil {
				ok, err := c.msgs.constraintsAllow(rt.node)
				if err != nil {
					return fired, err
				}
				if !ok {
					break
				}
				*cur = rt
				if err := c.step(rt); err != nil {
					return fired, err
				}
				fired++
				progressed = true
			}
			if rt.fired < goal[i] {
				done = false
			}
		}
		if done {
			return fired, nil
		}
		if !progressed {
			return fired, fmt.Errorf("messaging constraints are unsatisfiable: no progress possible during %s", phase)
		}
	}
}

// starved checks input availability for one firing of n: it returns the
// first in port's edge that holds less than its peek window, nil when n can
// fire.
func (c *core) starved(n *ir.Node) *ir.Edge {
	for p, e := range n.In {
		if e != nil && c.eng.inRing(e).Len() < n.PeekPort(p) {
			return e
		}
	}
	return nil
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
