package exec

import (
	"fmt"
	"sync/atomic"
	"time"

	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// Coarse-grained software pipelining on the mapped engine.
//
// A pipelined plan (Options.Stages) gives every node a stage level; the
// engine turns levels into stage offsets, stage = level * StageBatch, and
// runs macro-cycles instead of lockstep iterations. At cycle t a node with
// stage s fires its logical iteration t-s (once it is gated: s <= t <
// s+segIters), so a segment of I iterations takes I + maxStage cycles —
// the first maxStage cycles are the prologue (downstream stages idle), the
// last maxStage the epilogue (upstream stages done). Producers therefore
// work StageBatch cycles ahead of their consumers per level of separation,
// which is what lets each worker run K=StageBatch iterations of its nodes
// between cross-worker transfers: output is staged locally and flushed as
// one batch every K gated cycles (and at the segment's last firing), and
// the consumer performs one matching blocking receive at the same cycle
// index. Every cross-worker edge spans at least one level, so the K-cycle
// skew guarantees the flushed data always arrives before the consumer
// needs it, and the matched flush/receive schedule keeps channels drained
// at every epoch barrier.
//
// Feedback loops and teleport messaging cannot tolerate pipeline skew
// between their members — a loop interleaves at firing granularity and
// sdep delivery windows are relative to live progress counters — so the
// partitioner wraps each of them in a stage cluster (StageClusters): all
// members share one worker and one stage, and fire through a data-driven
// loop that mirrors the sequential engine's dynamic scheduler, including
// constraint gating and message delivery, which keeps outputs
// bit-identical to the sequential Engine.

// DefaultStageBatch is the pipelined flush interval in macro-cycles: how
// many iterations each stage runs ahead of the next, and how many
// iterations' worth of items one cross-worker transfer carries.
const DefaultStageBatch = 8

// swpState is the software-pipelining runtime of a mapped engine.
type swpState struct {
	levels    []int // per-node stage level
	numLevels int
	batch     int64 // K: flush interval and per-level stage distance
	clusters  [][]int
	clusterOf []int  // node ID -> cluster index, -1 for singletons
	msgNode   []bool // fires through the messaging-aware cluster path
	sends     []bool // filter's work function contains Send statements

	// Messaging runtime on the engine's derived progress counters;
	// pending/partial are nil when the graph has none.
	teleport
	partial []int64 // mid-firing progress-tape movement, by node ID

	// Segment position: the engine runs segIters logical iterations per
	// segment (one Run call), with base iterations retired by earlier
	// segments (checkpointed restarts).
	base     int64
	segIters int64
}

// maxStage is the last stage offset: the prologue/epilogue length.
func (sw *swpState) maxStage() int64 { return int64(sw.numLevels-1) * sw.batch }

// completed converts a cycle position into fully-retired logical
// iterations (those every stage has finished).
func (sw *swpState) completed(cycle int64) int64 {
	done := cycle - sw.maxStage()
	if done < 0 {
		done = 0
	}
	if done > sw.segIters {
		done = sw.segIters
	}
	return done
}

// newSWPState validates a pipelined configuration against the graph and
// assignment: complete non-negative levels, clusters whole on one worker
// at one level (feedback edges inside one cluster), cross-cluster forward
// edges strictly increasing in level, and the full messaging hull inside
// a single cluster.
func newSWPState(g *ir.Graph, s *sched.Schedule, opts Options, assign []int) (*swpState, error) {
	n := len(g.Nodes)
	if len(opts.Stages) != n {
		return nil, fmt.Errorf("exec: stage map covers %d of %d nodes", len(opts.Stages), n)
	}
	batch := opts.StageBatch
	if batch == 0 {
		batch = DefaultStageBatch
	}
	if batch < 1 {
		return nil, fmt.Errorf("exec: stage batch %d out of range (want >= 1 cycles)", opts.StageBatch)
	}
	sw := &swpState{
		teleport:  teleport{g: g, sch: s, trace: opts.Trace},
		levels:    append([]int(nil), opts.Stages...),
		batch:     int64(batch),
		clusterOf: make([]int, n),
		msgNode:   make([]bool, n),
		sends:     make([]bool, n),
	}
	for id, lv := range sw.levels {
		if lv < 0 {
			return nil, fmt.Errorf("exec: node %d has negative stage level %d", id, lv)
		}
		if lv+1 > sw.numLevels {
			sw.numLevels = lv + 1
		}
	}
	for i := range sw.clusterOf {
		sw.clusterOf[i] = -1
	}
	for ci, members := range opts.StageClusters {
		if len(members) == 0 {
			return nil, fmt.Errorf("exec: stage cluster %d is empty", ci)
		}
		for _, id := range members {
			if id < 0 || id >= n {
				return nil, fmt.Errorf("exec: stage cluster %d names node %d of %d", ci, id, n)
			}
			if sw.clusterOf[id] >= 0 {
				return nil, fmt.Errorf("exec: node %d appears in stage clusters %d and %d", id, sw.clusterOf[id], ci)
			}
			sw.clusterOf[id] = ci
			if assign[id] != assign[members[0]] {
				return nil, fmt.Errorf("exec: stage cluster %d splits across workers %d and %d", ci, assign[members[0]], assign[id])
			}
			if sw.levels[id] != sw.levels[members[0]] {
				return nil, fmt.Errorf("exec: stage cluster %d spans levels %d and %d", ci, sw.levels[members[0]], sw.levels[id])
			}
		}
		sw.clusters = append(sw.clusters, append([]int(nil), members...))
	}
	for _, e := range g.Edges {
		if e.Back {
			if sw.clusterOf[e.Src.ID] < 0 || sw.clusterOf[e.Src.ID] != sw.clusterOf[e.Dst.ID] {
				return nil, fmt.Errorf("exec: feedback edge %s must sit inside one stage cluster", e)
			}
			continue
		}
		sameCluster := sw.clusterOf[e.Src.ID] >= 0 && sw.clusterOf[e.Src.ID] == sw.clusterOf[e.Dst.ID]
		if sameCluster {
			continue
		}
		if sw.levels[e.Dst.ID] <= sw.levels[e.Src.ID] {
			return nil, fmt.Errorf("exec: edge %s does not advance the pipeline stage (level %d -> %d)",
				e, sw.levels[e.Src.ID], sw.levels[e.Dst.ID])
		}
	}

	hasMsg := len(g.Portals) > 0 || len(g.Constraints) > 0
	for _, nd := range g.Nodes {
		if nd.Kind != ir.NodeFilter || nd.Filter.WorkFn != nil {
			continue
		}
		if k := nd.Filter.Kernel; k != nil && k.Work != nil && wfunc.SendsMessages(k.Work) {
			sw.sends[nd.ID] = true
			hasMsg = true
		}
	}
	if hasMsg {
		cs, err := deriveConstraints(g)
		if err != nil {
			return nil, err
		}
		sw.constraints = cs
		sw.pending = make([][]*message, n)
		sw.partial = make([]int64, n)
		// Every messaging endpoint fires through the cluster path (message
		// delivery and constraint gating), and skew between endpoints
		// would shift delivery windows, so they must share one cluster.
		hull := -1
		mark := func(nd *ir.Node) error {
			if nd == nil {
				return nil
			}
			sw.msgNode[nd.ID] = true
			ci := sw.clusterOf[nd.ID]
			switch {
			case hull < 0:
				hull = ci
			case ci != hull:
				return fmt.Errorf("exec: messaging endpoint %s is outside the pipeline's messaging stage cluster", nd.Name)
			}
			return nil
		}
		for id, snd := range sw.sends {
			if snd {
				if err := mark(g.Nodes[id]); err != nil {
					return nil, err
				}
			}
		}
		for _, p := range g.Portals {
			for _, f := range p.Receivers {
				if err := mark(g.FilterNode[f]); err != nil {
					return nil, err
				}
			}
		}
		for _, c := range cs {
			if err := mark(c.sender); err != nil {
				return nil, err
			}
			if err := mark(c.receiver); err != nil {
				return nil, err
			}
		}
	}
	return sw, nil
}

// runCycles drives the current segment from the engine's cycle position to
// its end (segIters + maxStage cycles) in checkpointed epochs.
func (me *MappedEngine) runCycles() error {
	sw := me.swp
	if sw.segIters <= 0 {
		return nil
	}
	return me.driveTo(sw.segIters + sw.maxStage())
}

// swpStep is one slot in a worker's per-cycle firing order: a singleton
// node, or a whole stage cluster fired through the data-driven loop.
type swpStep struct {
	ctxs    []*mnodeCtx
	stage   int64 // first gated cycle (level * batch)
	cluster bool
}

// swpIn is one cross-worker in-edge with its producer's flush schedule.
type swpIn struct {
	e        *ir.Edge
	ch       chan []float64
	q        *SliceQueue
	srcStage int64
}

// runWorkerSWP drives one worker through cycles macro-cycles of the
// current epoch: per cycle, fire each gated step once, flush staged
// cross-worker output at batch boundaries, then receive every producer
// flush scheduled for this cycle index.
func (me *MappedEngine) runWorkerSWP(w, lane, cycles int) error {
	sw := me.swp
	K := sw.batch
	var steps []*swpStep
	var ctxs []*mnodeCtx
	byCluster := map[int]*swpStep{}
	for _, n := range me.order[w] {
		c := me.prepareNode(n)
		ctxs = append(ctxs, c)
		stage := int64(sw.levels[n.ID]) * K
		if ci := sw.clusterOf[n.ID]; ci >= 0 || sw.msgNode[n.ID] {
			key := ci
			if ci < 0 {
				key = -1 - n.ID // singleton messaging endpoint
			}
			st := byCluster[key]
			if st == nil {
				st = &swpStep{stage: stage, cluster: true}
				byCluster[key] = st
				steps = append(steps, st)
			}
			st.ctxs = append(st.ctxs, c) // me.order is topological, so ctxs stay ordered
			continue
		}
		steps = append(steps, &swpStep{ctxs: []*mnodeCtx{c}, stage: stage})
	}
	var compact []*SliceQueue
	for _, e := range me.G.Edges {
		if me.Assign[e.Src.ID] == w && me.Assign[e.Dst.ID] == w {
			compact = append(compact, me.queues[e.ID])
		}
	}
	var ins []swpIn
	for _, e := range me.G.Edges {
		if me.chans[e.ID] != nil && me.Assign[e.Dst.ID] == w {
			ins = append(ins, swpIn{e: e, ch: me.chans[e.ID], q: me.queues[e.ID],
				srcStage: int64(sw.levels[e.Src.ID]) * K})
		}
	}

	var cur *mnodeCtx // the node currently firing, for fault attribution
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if wc, ok := r.(*workerCrash); ok {
					err = wc
					return
				}
				name, fired := fmt.Sprintf("worker %d", w), int64(0)
				if cur != nil {
					name, fired = cur.rt.node.Name, cur.rt.fired
				}
				err = asExecError(name, fired, r)
			}
		}()
		for it := 0; it < cycles; it++ {
			t := me.iter + int64(it)
			if me.sup != nil {
				if wf, ok := me.sup.takeWorker(w, t); ok {
					if err := me.workerFault(w, lane, t, wf, ctxs); err != nil {
						return err
					}
				}
			}
			var t0 time.Duration
			if me.rec != nil {
				t0 = me.rec.Stamp()
			}
			for _, sp := range steps {
				fi := t - sp.stage + 1 // 1-based firing count once gated
				if fi < 1 || fi > sw.segIters {
					continue
				}
				if sp.cluster {
					if err := me.swpClusterStep(sp, fi, &cur); err != nil {
						return err
					}
				} else {
					cur = sp.ctxs[0]
					if err := me.swpFireStep(sp.ctxs[0]); err != nil {
						return err
					}
				}
				cur = nil
				if fi%K == 0 || fi == sw.segIters {
					for _, c := range sp.ctxs {
						if err := me.swpFlush(c); err != nil {
							return err
						}
					}
				}
			}
			for _, in := range ins {
				fi := t - in.srcStage + 1
				if fi < 1 || fi > sw.segIters {
					continue
				}
				if fi%K == 0 || fi == sw.segIters {
					batch, err := me.recvBatch(in.e.Dst, in.e, in.ch, in.q, me.statuses[in.e.Dst.ID])
					if err != nil {
						return err
					}
					in.q.Append(batch)
				}
			}
			for _, q := range compact {
				q.Compact()
			}
			if me.rec != nil {
				end := me.rec.Stamp()
				me.rec.Slice(lane, fmt.Sprintf("worker %d", w), "cycle", t0, end)
			}
		}
		return nil
	}()
	for _, c := range ctxs {
		me.statuses[c.rt.node.ID].set(stDone, "", 0, -1)
	}
	return err
}

// swpFireStep fires a gated singleton node's one logical iteration (reps
// firings) of this cycle.
func (me *MappedEngine) swpFireStep(c *mnodeCtx) error {
	st := me.statuses[c.rt.node.ID]
	for r := 0; r < c.reps; r++ {
		if err := me.fireTimed(c, st); err != nil {
			return err
		}
		if c.pst != nil {
			c.pst.AddFiring()
		}
		c.rt.fired++
		atomic.AddInt64(&me.progress, 1)
	}
	return nil
}

// swpClusterStep advances every member of a stage cluster to its firing
// target for this cycle through the sequential engine's data-driven
// discipline: topological passes firing whatever has input and is allowed
// by the messaging constraints, delivering due messages around each
// firing, until all members reach target or no member can move.
func (me *MappedEngine) swpClusterStep(sp *swpStep, fi int64, cur **mnodeCtx) error {
	sw := me.swp
	for {
		progressed, allDone := false, true
		for _, c := range sp.ctxs {
			n := c.rt.node
			target := me.initFired[n.ID] + (sw.base+fi)*int64(c.reps)
			st := me.statuses[n.ID]
			for c.rt.fired < target {
				if !me.swpCanFire(c) {
					break
				}
				ok, err := sw.constraintsAllow(n)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				*cur = c
				if err := me.swpClusterFire(c, st); err != nil {
					return err
				}
				progressed = true
			}
			if c.rt.fired < target {
				allDone = false
			}
		}
		if allDone {
			return nil
		}
		if !progressed {
			return fmt.Errorf("messaging constraints are unsatisfiable: no progress possible during steady-state")
		}
	}
}

// swpClusterFire is one cluster-member firing with message delivery on the
// sequential engine's timing: best-effort/downstream messages immediately
// before, upstream immediately after.
func (me *MappedEngine) swpClusterFire(c *mnodeCtx, st *nodeStatus) error {
	n := c.rt.node
	if err := me.swp.deliverDue(n, true); err != nil {
		return err
	}
	if err := me.fireTimed(c, st); err != nil {
		return err
	}
	if c.pst != nil {
		c.pst.AddFiring()
	}
	c.rt.fired++
	if c.partial != nil {
		*c.partial = 0
	}
	atomic.AddInt64(&me.progress, 1)
	return me.swp.deliverDue(n, false)
}

// swpCanFire checks input availability for one firing (the sequential
// engine's canFire over the worker-local queues).
func (me *MappedEngine) swpCanFire(c *mnodeCtx) bool {
	n := c.rt.node
	for p, e := range n.In {
		if e == nil {
			continue
		}
		if c.in[p].Len() < n.PeekPort(p) {
			return false
		}
	}
	return true
}

// swpFlush ships a node's staged cross-worker output as one batch per
// edge. Called at batch boundaries and at the node's last gated cycle, so
// the consumer's matching receive schedule drains every batch.
func (me *MappedEngine) swpFlush(c *mnodeCtx) error {
	n := c.rt.node
	st := me.statuses[n.ID]
	for p, e := range n.Out {
		if e == nil || c.localOut[p] {
			continue
		}
		q := c.out[p]
		batch := q.Take(q.Len())
		if err := me.sendBatch(e, me.chans[e.ID], batch, st); err != nil {
			return err
		}
	}
	return nil
}

// tapeProgress mirrors the sequential engine's progress counter from firing
// counts: pushed items on the out tape (initial delay items included, as
// channel construction pushes them) or popped items for sinks, plus the
// mid-firing movement recorded by partialTape.
func (me *MappedEngine) tapeProgress(n *ir.Node) int64 {
	rt := me.nodes[n.ID]
	var partial int64
	if me.swp.partial != nil {
		partial = me.swp.partial[n.ID]
	}
	if e := n.OutEdge(); e != nil {
		return int64(len(e.Initial)) + rt.fired*int64(n.TotalPush()) + partial
	}
	if n.InEdge() != nil {
		return rt.fired*int64(n.TotalPop()) + partial
	}
	return 0
}

// kernelState is the state a node's message handlers run against.
func (me *MappedEngine) kernelState(n *ir.Node) *wfunc.State { return me.nodes[n.ID].state }

// partialTape counts a sender's progress-tape movement inside the current
// firing: pushes on its out tape, or pops on its in tape for sinks. The
// counter resets at each firing (and each supervised retry attempt), so
// derived progress = fired*rate + partial tracks the sequential engine's
// live channel counters exactly, even mid-firing.
type partialTape struct {
	inner wfunc.Tape
	count *int64
	pops  bool
}

func (t *partialTape) Peek(i int) float64 { return t.inner.Peek(i) }

func (t *partialTape) Pop() float64 {
	v := t.inner.Pop()
	if t.pops {
		*t.count++
	}
	return v
}

func (t *partialTape) Push(v float64) {
	t.inner.Push(v)
	if !t.pops {
		*t.count++
	}
}

// Stages exposes the pipelined stage offsets (nil for lockstep plans);
// diagnostics and tests.
func (me *MappedEngine) Stages() []int {
	if me.swp == nil {
		return nil
	}
	out := make([]int, len(me.swp.levels))
	for i, lv := range me.swp.levels {
		out[i] = lv * int(me.swp.batch)
	}
	return out
}
