package exec

import (
	"cmp"
	"fmt"

	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// This file is the mapped engine's shard face: the pieces internal/dist
// composes into a distributed run. A shard is a full MappedEngine over the
// whole rewritten graph whose Options.LocalWorkers mask names the workers
// this process executes; initialization runs locally (it is deterministic
// and cheap), steady state fires only the local partitions. Every
// cross-worker edge with a local end is a link; on a shard-boundary edge
// the far side is the caller's socket pump (DrainBoundary, FillBoundary)
// instead of a worker, so workers wait, report who they wait on
// (WaitingOn) and unwind (Abort) the same way on every edge. At every
// epoch barrier each shard exports the state it owns (ExportShard) and the
// coordinator reassembles the canonical checkpoint image
// (AssembleShardImage), byte-identical to a single-process run's: what
// makes cross-process rollback, migration, and sequential-engine
// interchange work.

// localWorker reports whether worker w runs in this process.
func (me *MappedEngine) localWorker(w int) bool {
	return me.local == nil || me.local[w]
}

// DrainBoundary waits for the next batch the local producer of
// shard-boundary edge publishes, hands it to ship, then releases its slot;
// one goroutine at a time per edge. It fails once the engine halts, or
// with ship's error, leaving the batch in place.
func (me *MappedEngine) DrainBoundary(edge int, ship func([]float64) error) error {
	l := me.links[edge]
	if err := l.wait(sideRecv); err != nil {
		return err
	}
	if err := ship(*l.slot(sideRecv)); err != nil {
		return err
	}
	l.advance(sideRecv)
	return nil
}

// FillBoundary waits for a free slot in the link of shard-boundary edge,
// whose producer runs on a peer shard, and publishes a copy of batch in
// it; one goroutine at a time per edge. It fails once the engine halts.
func (me *MappedEngine) FillBoundary(edge int, batch []float64) error {
	l := me.links[edge]
	if err := l.wait(sideSend); err != nil {
		return err
	}
	s := l.slot(sideSend)
	*s = append((*s)[:0], batch...)
	l.advance(sideSend)
	return nil
}

// WaitingOn lists the workers of peer shards whose nodes local nodes are
// blocked on right now, once per blocked node: a consumer on a boundary
// link its remote producer has not filled, or a producer on one its pump
// has not drained. It samples the wait states await publishes, from any
// goroutine.
func (me *MappedEngine) WaitingOn() (workers []int) {
	for _, st := range me.statuses {
		if on := st.blockedOn.Load(); on >= 0 && !me.localWorker(me.Assign[on]) {
			workers = append(workers, me.Assign[on])
		}
	}
	return workers
}

// Abort halts the engine from any goroutine: every link wait, a worker's
// or a pump's, unwinds, now and in later epochs, until Prepare or a
// restore resets the engine; an epoch a wait unwound from fails. It must
// not race a reset or a re-plan, which a shard's engine never makes.
func (me *MappedEngine) Abort() { me.halt() }

// Prepare resets the engine to the post-init prototype (running the init
// schedule only the first time) without running any steady iterations —
// the distributed shard's setup step, after which RestoreCheckpoint or
// StepEpoch may be called. It is Run's reset exposed on its own.
func (me *MappedEngine) Prepare() error { return me.setup() }

// Iteration returns the engine's cycle position: the number of completed
// steady iterations on a zero-skew plan, the only kind a shard runs.
func (me *MappedEngine) Iteration() int64 { return me.iter }

// StepEpoch runs iters cycles (steady iterations of a zero-skew plan,
// whose open segment grows to cover them) across the local workers and
// waits for the barrier: one distributed epoch, and a drive of one epoch.
// A shard's engine takes no checkpoints and performs no crash recovery
// (the distributed coordinator owns both); on error the engine's state is
// unspecified and the shard must discard it. The engine must be Prepared
// or restored first.
func (me *MappedEngine) StepEpoch(iters int) error {
	if !me.ready {
		return cmp.Or(me.lost, fmt.Errorf("exec: engine not prepared; call Prepare or RestoreCheckpoint first"))
	}
	if iters <= 0 {
		return fmt.Errorf("exec: epoch of %d iterations", iters)
	}
	end := me.iter + int64(iters)
	if sw := me.swp; sw.maxStage() == 0 {
		// A skewed segment's length is fixed when it starts.
		sw.segIters = max(sw.segIters, end)
	}
	return me.driveTo(end)
}

// ShardNodeState is one locally-owned node's share of a barrier image:
// its firing count and (for stateful filters) its kernel state. The state
// is referenced, not copied — serialize it before resuming the engine.
type ShardNodeState struct {
	ID    int
	Fired int64
	State *wfunc.State
}

// ShardEdgeState is one locally-owned edge's share of a barrier image:
// the buffered residue sitting in its consumer ring (ownership follows
// the consumer, which is where a quiesced edge's items live).
type ShardEdgeState struct {
	ID    int
	Items []float64
}

// ShardState is the slice of a coordinated barrier image owned by one
// shard: its nodes' firing counts and states, and the residue of every
// edge whose consumer it runs. The coordinator merges the shards'
// ShardStates into a canonical checkpoint with AssembleShardImage.
type ShardState struct {
	Iteration int64
	Nodes     []ShardNodeState
	Edges     []ShardEdgeState
}

// ExportShard captures this shard's share of the current barrier: every
// node on a local worker, and every edge consumed by a local worker. Must
// be called at an epoch barrier (after Prepare/StepEpoch returned). The
// node states are referenced, not cloned.
func (me *MappedEngine) ExportShard() (*ShardState, error) {
	if !me.ready {
		return nil, fmt.Errorf("exec: engine not prepared; nothing to export")
	}
	st := &ShardState{Iteration: me.iter}
	for _, n := range me.G.Nodes {
		if !me.localWorker(me.Assign[n.ID]) {
			continue
		}
		rt := me.nodes[n.ID]
		st.Nodes = append(st.Nodes, ShardNodeState{ID: n.ID, Fired: rt.fired, State: rt.state})
	}
	for _, e := range me.G.Edges {
		if !me.localWorker(me.Assign[e.Dst.ID]) {
			continue
		}
		// Quiesced zero-skew barriers leave staging empty; image()'s
		// concatenation is kept anyway.
		st.Edges = append(st.Edges, ShardEdgeState{ID: e.ID, Items: me.edgeItems(nil, e)})
	}
	return st, nil
}

// AssembleShardImage merges per-shard barrier states into the canonical
// engine-neutral checkpoint image over (g, s) — byte-identical to the
// image a single-process mapped or sequential engine would write at the
// same iteration. Every node and every edge must be owned by exactly one
// part; firing counts are validated against the schedule's initialization
// totals, and per-edge pushed/popped counters are reconstructed from the
// firing counts by the rule a mapped restore checks its image against.
func AssembleShardImage(g *ir.Graph, s *sched.Schedule, iteration int64, parts []*ShardState) ([]byte, error) {
	initFired, _, push := initCounts(g, s)
	nodes := make([]*nodeRT, len(g.Nodes))
	items := make([][]float64, len(g.Edges))
	haveEdge := make([]bool, len(g.Edges))
	var firings int64
	for pi, part := range parts {
		if part == nil {
			return nil, fmt.Errorf("exec: assemble: part %d is nil", pi)
		}
		for _, ns := range part.Nodes {
			if ns.ID < 0 || ns.ID >= len(g.Nodes) {
				return nil, fmt.Errorf("exec: assemble: part %d names node %d of %d", pi, ns.ID, len(g.Nodes))
			}
			if nodes[ns.ID] != nil {
				return nil, fmt.Errorf("exec: assemble: node %d owned by two shards", ns.ID)
			}
			if ns.Fired < initFired[ns.ID] {
				return nil, fmt.Errorf("exec: assemble: node %s fired %d times, below its initialization count %d",
					g.Nodes[ns.ID].Name, ns.Fired, initFired[ns.ID])
			}
			nodes[ns.ID] = &nodeRT{fired: ns.Fired, state: ns.State}
			firings += ns.Fired
		}
		for _, es := range part.Edges {
			if es.ID < 0 || es.ID >= len(g.Edges) {
				return nil, fmt.Errorf("exec: assemble: part %d names edge %d of %d", pi, es.ID, len(g.Edges))
			}
			if haveEdge[es.ID] {
				return nil, fmt.Errorf("exec: assemble: edge %d owned by two shards", es.ID)
			}
			haveEdge[es.ID] = true
			items[es.ID] = es.Items
		}
	}
	for id, rt := range nodes {
		if rt == nil {
			return nil, fmt.Errorf("exec: assemble: node %s owned by no shard", g.Nodes[id].Name)
		}
	}
	for id, ok := range haveEdge {
		if !ok {
			return nil, fmt.Errorf("exec: assemble: edge %s owned by no shard", g.Edges[id])
		}
	}
	queues := make([]*wfunc.Ring, len(g.Edges))
	for _, e := range g.Edges {
		pushed := pushedAt(e, nodes[e.Src.ID].fired, push)
		popped := pushed - int64(len(items[e.ID]))
		if popped < 0 {
			return nil, fmt.Errorf("exec: assemble: edge %s buffers %d items but only %d were ever pushed", e, len(items[e.ID]), pushed)
		}
		queues[e.ID] = new(wfunc.Ring)
		queues[e.ID].Fill(popped, items[e.ID])
	}
	return appendImage(nil, GraphFingerprint(g, s), iteration, firings, nodes, queues, nil, nil, nil), nil
}
