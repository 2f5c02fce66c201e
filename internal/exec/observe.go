package exec

import (
	"streamit/internal/ir"
	"streamit/internal/obs"
)

// This file is the engines' glue to internal/obs. Observability is opt-in:
// when disabled every engine holds nil profiler/recorder pointers and the
// firing core pays a nil check per firing; when enabled, the core times
// every filter firing and its per-firing hook (nodeRT.committed) counts the
// firing's traffic from its ring positions — no tape is wrapped.

// nodeNames lists node names indexed by node ID (the profiler's indexing).
func nodeNames(g *ir.Graph) []string {
	names := make([]string, len(g.Nodes))
	for _, n := range g.Nodes {
		names[n.ID] = n.Name
	}
	return names
}

// sjCounts returns the items one firing of a splitter or joiner pops and
// pushes: the arithmetic of the firing core's routing body (route), whose
// nil ports consume but do not produce on splitters and are skipped
// entirely on joiners. TestSJCountsMatchRoute holds the two together.
func sjCounts(n *ir.Node) (pops, pushes int64) {
	switch n.Kind {
	case ir.NodeSplitter:
		if n.SJ.Kind == ir.SJDuplicate {
			pops = 1
			for _, e := range n.Out {
				if e != nil {
					pushes++
				}
			}
			return
		}
		for p, e := range n.Out {
			w := int64(n.SJ.Weights[p])
			pops += w
			if e != nil {
				pushes += w
			}
		}
	case ir.NodeJoiner:
		for p, e := range n.In {
			if e == nil {
				continue
			}
			w := int64(n.SJ.Weights[p])
			pops += w
			pushes += w
		}
	}
	return
}

// profileSJ credits one splitter/joiner firing's tape traffic. Filters are
// counted by the firing core's per-firing hook from their ring positions;
// splitters and joiners have static per-firing traffic, so arithmetic is
// cheaper and identical across engines.
func profileSJ(st *obs.FilterStats, n *ir.Node) {
	pops, pushes := sjCounts(n)
	st.AddPops(pops)
	st.AddPushes(pushes)
}

// adoptObs attaches a profiler and/or trace recorder to the engine and
// binds every filter's tapes. The mapped engine calls it on its scratch
// init engine so the init transient lands in the same counters as the
// steady state.
func (e *Engine) adoptObs(prof *obs.Profiler, rec *obs.Recorder) {
	e.prof, e.rec, e.trace = prof, rec, rec
	if rec != nil {
		for _, n := range e.G.Nodes {
			if n.Kind == ir.NodeFilter {
				rec.Lane(n.ID, n.Name)
			}
		}
		e.laneSched = len(e.G.Nodes)
		rec.Lane(e.laneSched, "steady iterations")
	}
	for _, rt := range e.nodes {
		if prof != nil {
			rt.pst = prof.At(rt.node.ID)
		}
		rt.bind(e)
	}
}

// traceFault records a fault-injection instant on the node's lane.
func traceFault(rec *obs.Recorder, tid int, name, kind string) {
	if rec != nil {
		rec.Instant(tid, "fault: "+kind, "fault", name)
	}
}

// traceRecovery records a recovery-action instant on the node's lane.
func traceRecovery(rec *obs.Recorder, tid int, name, action string) {
	if rec != nil {
		rec.Instant(tid, "recover: "+action, "recovery", name)
	}
}
