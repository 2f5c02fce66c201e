package exec

import (
	"fmt"

	"streamit/internal/ir"
	"streamit/internal/wfunc"
)

// DynamicEngine runs stream graphs with data-dependent rates, the paper's
// stated future work ("applications such as compression that have
// dynamically varying flow rates"). Such programs have no steady-state
// schedule, so this is the sequential engine built without one, under a
// data-driven loop (Run) that fires every node on one thread in a
// deterministic order. Teleport messaging is not supported (its delivery
// semantics assume static rates, as the paper notes); without a schedule,
// neither are steady iterations nor checkpoints.
type DynamicEngine struct {
	*core // the firing core: the profile, trace and supervision surface
	// ChanCap is how far a producer runs ahead of its consumer, in items
	// per edge (default 4096). A graph that needs more buffering than this
	// deadlocks; raise it for bursty programs.
	ChanCap int

	e     *Engine
	order []*nodeRT  // topological
	sinks []*channel // the sinks' input rings
	// wait[n.ID] is the input count (its pushed) a dynamic-rate filter that
	// ran its input dry waits for; fields[n.ID] holds its fields during an
	// attempt, when its work writes them.
	wait   []int64
	fields []*wfunc.State
	popped int64 // sink items consumed by the last Run
}

// NewDynamicOpts prepares a dynamic engine for a flattened graph. Fault
// injection is supported; recovery policies are not, since skip honours
// declared rates, which a dynamic-rate filter does not have.
func NewDynamicOpts(g *ir.Graph, opts Options) (*DynamicEngine, error) {
	if len(g.Portals) > 0 || len(g.Constraints) > 0 {
		return nil, fmt.Errorf("exec: dynamic-rate execution does not support teleport messaging or MAX_LATENCY")
	}
	if opts.OnError.Active() {
		return nil, fmt.Errorf("exec: recovery policies need declared rates, which a dynamic-rate filter does not have; use the sequential or mapped engine")
	}
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	e, err := NewFromGraphOpts(g, nil, opts)
	if err != nil {
		return nil, err
	}
	d := &DynamicEngine{core: &e.core, ChanCap: 4096, e: e,
		wait: make([]int64, len(g.Nodes)), fields: make([]*wfunc.State, len(g.Nodes))}
	for _, n := range topo {
		d.order = append(d.order, e.nodes[n.ID])
		if in := n.InEdge(); in != nil && n.IsSink() {
			d.sinks = append(d.sinks, e.chans[in.ID])
		}
		if speculative(n) && n.IsStateful() {
			d.fields[n.ID] = e.nodes[n.ID].state.Clone()
		}
	}
	if len(d.sinks) == 0 {
		return nil, fmt.Errorf("exec: dynamic execution needs at least one sink to count output")
	}
	return d, nil
}

// speculative reports whether n is a dynamic-rate filter reading an input,
// which may read past its declared window.
func speculative(n *ir.Node) bool {
	return n.Kind == ir.NodeFilter && n.Filter.Kernel.Dynamic && n.InEdge() != nil
}

// SinkItems returns the items consumed by sinks in the last Run.
func (d *DynamicEngine) SinkItems() int64 { return d.popped }

func (d *DynamicEngine) consumed() (n int64) {
	for _, c := range d.sinks {
		n += c.popped
	}
	return n
}

// Run makes topological passes until the sinks have consumed at least
// sinkItems more items, firing each node while blocker finds nothing in its
// way. A rewound attempt is progress too: it raises the filter's wait above
// its input, which may lift its producer's full ring, and it cannot repeat
// without new input. A pass that neither fires nor rewinds is a deadlock.
func (d *DynamicEngine) Run(sinkItems int64) (err error) {
	defer d.e.blameFiring(&err)
	start := d.consumed()
	defer func() { d.popped = d.consumed() - start }()
	for d.consumed()-start < sinkItems {
		progressed := false
		for _, rt := range d.order {
			for e, _ := d.blocker(rt.node); e == nil; e, _ = d.blocker(rt.node) {
				d.e.cur = rt
				if err := d.attempt(rt); err != nil {
					return err
				}
				progressed = true
			}
		}
		if !progressed {
			return d.deadlock()
		}
	}
	return nil
}

// blocker returns the edge n cannot fire for, nil when it can: an input
// short of its peek window or of the items a dynamic-rate filter waits
// for, or an output ring holding ChanCap items whose consumer waits for no
// more (full).
func (d *DynamicEngine) blocker(n *ir.Node) (e *ir.Edge, full bool) {
	if e := d.starved(n); e != nil {
		return e, false
	}
	if in := n.InEdge(); in != nil && d.e.chans[in.ID].pushed < d.wait[n.ID] {
		return in, false
	}
	for _, e := range n.Out {
		if c := d.e.chans[e.ID]; c.Len() >= d.ChanCap && c.pushed >= d.wait[e.Dst.ID] {
			return e, true
		}
	}
	return nil, false
}

// attempt fires rt once. A speculative filter fires under a save point
// (savePoint: its rings, and its fields when its work writes them). An
// attempt that runs its input dry is rewound, leaving a trace instant and
// nothing in the profile or at a tap (the firing core's hook sees committed
// firings only), and the filter waits until its input has grown by the
// items it was short, so no attempt repeats without new input. Every other
// node fires as on the sequential engine, with no recover.
func (d *DynamicEngine) attempt(rt *nodeRT) error {
	n := rt.node
	if !speculative(n) {
		return d.fire(rt)
	}
	restore := d.savePoint(rt, d.fields[n.ID])
	defer func() {
		if r := recover(); r != nil {
			f, short := r.(tapeFault)
			if !short || f.short == 0 {
				panic(r)
			}
			restore()
			d.wait[n.ID] = d.e.chans[n.InEdge().ID].pushed + int64(f.short)
			traceRecovery(d.rec, n.ID, n.Name, "rewind")
		}
	}()
	return d.fire(rt)
}

// deadlock reports a pass that neither fired nor rewound while the sinks
// were short: every node waits on the producer of an input it is short on,
// or on the consumer of an output ring it has filled.
func (d *DynamicEngine) deadlock() *DeadlockError {
	return deadlockReport("dynamic", 0, d.e.G, func(n *ir.Node) (FilterStatus, int, bool) {
		e, full := d.blocker(n)
		state, peer := wsWaitRecv, e.Src
		if full {
			state, peer = wsWaitSend, e.Dst
		}
		return FilterStatus{Worker: -1, State: waitStates[state], Edge: e.String(),
			Buffered: d.e.chans[e.ID].Len()}, peer.ID, true
	})
}
