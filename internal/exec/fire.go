package exec

import (
	"fmt"
	"time"

	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/wfunc"
)

// The firing core: how a node fires, stated once for every engine. The
// sequential and mapped engines differ in their tapes, in how they save
// those tapes for a supervised rollback, in how they count progress and in
// their outer loops; the dynamic engine is the sequential one with its own
// outer loop. What a firing is — a filter's work dispatch (override, native
// WorkFn, then the work runner) under the supervisor when one is attached,
// a splitter's or joiner's routing, the observability stamp, and the
// constraint-aware data-driven loop that hosts teleport messaging — is this
// file.

// nodeRT is one node's runtime record, the same under every engine. It
// outlives epochs, re-plans and restores; only the mapped engine rebinds its
// tapes, once per worker topology.
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
	// pst is the node's profiler slot; nil unless profiling.
	pst *obs.FilterStats
	// in and out are a filter's effective tapes: the engine's edge tapes,
	// or the profiling, tapping and progress wrappers over them.
	in, out wfunc.Tape
}

// coreHost is an engine as the firing core sees it.
type coreHost interface {
	// inTape and outTape are edge e's tape at its consumer's and at its
	// producer's end.
	inTape(e *ir.Edge) wfunc.Tape
	outTape(e *ir.Edge) wfunc.Tape
	// save marks a filter's tapes for a supervised rollback and returns
	// the function that rewinds them to the mark.
	save(rt *nodeRT) (rewind func())
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

// bind points a filter's effective tapes at the engine's edge tapes, under
// counting wrappers when the node is profiled: the one place a tape is
// wrapped for the profiler.
func (rt *nodeRT) bind(h coreHost) {
	n := rt.node
	if n.Kind != ir.NodeFilter {
		return
	}
	rt.in, rt.out = nil, nil
	if e := n.InEdge(); e != nil {
		rt.in = h.inTape(e)
		if rt.pst != nil {
			rt.in = &obsTape{inner: rt.in, st: rt.pst}
		}
	}
	if e := n.OutEdge(); e != nil {
		rt.out = h.outTape(e)
		if rt.pst != nil {
			rt.out = &obsTape{inner: rt.out, st: rt.pst, lenFn: rt.out.(interface{ Len() int }).Len}
		}
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

// savePoint marks what a filter firing may change, for a rollback: its
// tapes (the engine's save), the teleport messages it has sent and, copied
// into keep when that is set, its fields. The returned restore rewinds all
// three, as often as it is called.
func (c *core) savePoint(rt *nodeRT, keep *wfunc.State) (restore func()) {
	rewind := c.eng.save(rt)
	var sent []int
	if rt.msg != nil {
		sent = c.msgs.mark()
	}
	if keep != nil {
		copyState(keep, rt.state)
	}
	return func() {
		rewind()
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
// or joiner's routing, or a filter's work — under the observability stamp
// when a profiler or recorder is attached, handed to the supervisor when
// one is. A plain filter firing is fire → work → runner, no frame between.
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
	case rt.pst != nil || c.rec != nil:
		err = c.stamped(rt)
	case c.sup != nil:
		err = c.sup.fire(c, rt)
	default:
		err = c.work(rt, rt.out)
	}
	if err != nil {
		return err
	}
	rt.fired++
	if rt.msg != nil && rt.msg.partial != nil {
		*rt.msg.partial = 0 // the firing's progress is in fired now
	}
	return nil
}

// stamped is a filter firing under the observability stamp: work time and
// the trace's firing slice over the elapsed span, and the firing count. No
// tape blocks inside a firing: the mapped engine books its stalls between
// firings.
func (c *core) stamped(rt *nodeRT) error {
	n := rt.node
	start := time.Now()
	var err error
	if c.sup != nil {
		err = c.sup.fire(c, rt)
	} else {
		err = c.work(rt, rt.out)
	}
	d := time.Since(start)
	if rt.pst != nil {
		rt.pst.AddWork(d)
	}
	if c.rec != nil {
		end := c.rec.Stamp()
		c.rec.Slice(n.ID, n.Name, "firing", end-d, end)
	}
	if err == nil && rt.pst != nil {
		rt.pst.AddFiring()
	}
	return err
}

// work runs a filter's kernel once on its effective tapes, pushing to out
// (its out tape, or a corrupting wrapper over it): the override when one is
// set, else the native WorkFn, else the work runner. Panics unwind to the
// caller's recover — the loop's when unsupervised, the supervisor's
// attempt otherwise.
func (c *core) work(rt *nodeRT, out wfunc.Tape) error {
	n := rt.node
	var msg wfunc.Messenger
	if rt.msg != nil {
		msg = rt.msg
		if rt.msg.partial != nil {
			*rt.msg.partial = 0 // each attempt starts clean: a rollback rewound what it counted
		}
	}
	if rt.override != nil {
		rt.override(rt.in, out)
		return nil
	}
	if n.Filter.WorkFn != nil {
		n.Filter.WorkFn(rt.in, out, rt.state)
		return nil
	}
	if err := rt.runner.run(rt.in, out, msg, rt.print); err != nil {
		return &ExecError{Filter: n.Name, Op: "work", Iteration: rt.fired, Err: err}
	}
	return nil
}

// route is one splitter or joiner firing over the engine's edge tapes: the
// one routing body, whose traffic sjCounts states as arithmetic. A
// splitter's nil out port consumes its share and produces nothing; a
// joiner's nil in port is skipped.
func route(n *ir.Node, h coreHost) {
	if n.Kind == ir.NodeJoiner {
		out := h.outTape(n.OutEdge())
		for p, e := range n.In {
			if e == nil {
				continue
			}
			in := h.inTape(e)
			for k := n.SJ.Weights[p]; k > 0; k-- {
				out.Push(in.Pop())
			}
		}
		return
	}
	in := h.inTape(n.InEdge())
	if n.SJ.Kind == ir.SJDuplicate {
		v := in.Pop()
		for _, e := range n.Out {
			if e != nil {
				h.outTape(e).Push(v)
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
		out := h.outTape(e)
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

// queues is what the data-driven loop reads of an engine's tapes: how many
// items wait on edge e for its consumer.
type queues interface {
	buffered(e *ir.Edge) int
}

// dataDriven is the constraint-aware data-driven loop, the sequential
// engine's schedule under messaging constraints and the mapped engine's
// stage clusters: topological passes over nodes, firing each — with
// delivery around it — while it is short of its goal, has input on every
// port, and is allowed by the messaging constraints (mc1/mc2), until every
// node reaches goal[i]. It returns the firings it made; *cur is the node
// being fired, for the caller's recover. phase names the schedule phase a
// pass that cannot move is reported in.
func (c *core) dataDriven(q queues, nodes []*nodeRT, goal []int64, phase string, cur **nodeRT) (int64, error) {
	var fired int64
	for {
		progressed, done := false, true
		for i, rt := range nodes {
			for rt.fired < goal[i] && starved(q, rt.node) == nil {
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
func starved(q queues, n *ir.Node) *ir.Edge {
	for p, e := range n.In {
		if e != nil && q.buffered(e) < n.PeekPort(p) {
			return e
		}
	}
	return nil
}

// kernelState is the state a node's message handlers run against.
func (c *core) kernelState(n *ir.Node) *wfunc.State { return c.nodes[n.ID].state }

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
