package exec

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// The mapped engine's stage plan and the one worker loop that runs it.
//
// Every mapped engine carries a stage plan: each node has a stage level,
// the engine turns levels into stage offsets, stage = level * StageBatch,
// and workers run macro-cycles. At cycle t a node with stage s fires its
// logical iteration t-s (once it is gated: s <= t < s+segIters), so a
// segment of I iterations takes I + maxStage cycles — the first maxStage
// cycles are the prologue (downstream stages idle), the last maxStage the
// epilogue (upstream stages done). Cross-worker output is staged locally
// and flushed as one batch every K=StageBatch gated cycles (and at the
// segment's last firing) into a slot of the edge's link, a lock-free ring
// of Depth batch slots (link.go); the consumer performs one matching
// receive at the same cycle index, waiting only on an empty ring, so links
// are drained at every epoch barrier.
//
// Lockstep is the zero-skew plan, which the engine builds itself when the
// caller supplies no Options.Stages: every level 0, no clusters. There is
// no prologue or epilogue, every barrier is uniform, and the segment stays
// open — it starts at iteration 0 and is extended at each barrier the run
// continues from. A zero-skew cycle is a block of up to StageBatch steady
// iterations: each node fires its share of all of them in one step, and
// every cross-worker edge ships the block as one batch. Blocks are cut at
// epoch ends and at scheduled worker faults, which every worker knows, so
// the workers agree on every block and barriers fall where they would one
// iteration per cycle. A sharded engine keeps one iteration per cycle: its
// shard transport frames carry one iteration each.
//
// Where a batch is received is a property of its edge, read off the stage
// map. When the producer runs at the consumer's stage (every cross-worker
// edge of a zero-skew plan) the consumer needs the batch this very cycle,
// so it is received immediately before the consumer's step; every worker
// visits its nodes in a common topological order, so the worker holding
// the globally earliest incomplete firing always has its inputs available.
// When the edge advances the stage (every cross-cluster edge of a plan the
// caller supplies) the batch feeds a later cycle, and is received after
// the cycle's steps: receiving it before the step would, on flush cycles,
// chain producer to consumer across workers and serialise exactly the
// overlap the skew exists to create.
//
// Feedback loops and teleport messaging cannot tolerate pipeline skew
// between their members — a loop interleaves at firing granularity and
// sdep delivery windows are relative to live progress counters — so the
// partitioner wraps each of them in a stage cluster (StageClusters): all
// members share one worker and one stage, and fire through the firing
// core's data-driven loop — the one the sequential engine schedules
// messaging programs with, constraint gating and message delivery included
// — which keeps outputs bit-identical to the sequential Engine. The zero-skew plan has no
// clusters, which is why it cannot host either.

// StageBatch is the pipelined flush interval in macro-cycles: how many
// iterations each stage runs ahead of the next, and how many iterations'
// worth of items one cross-worker transfer carries. It is also the
// zero-skew plan's block: the steady iterations one lockstep cycle covers.
const StageBatch = 8

// swpState is the stage plan and its runtime position; every mapped engine
// has one.
type swpState struct {
	levels    []int // per-node stage level
	numLevels int
	batch     int64 // K: flush interval and per-level stage distance
	// block is the iterations one cycle covers at most: StageBatch on an
	// unsharded zero-skew plan, else 1. cuts are the iterations every
	// scheduled worker fault hits, sorted: a cycle never spans one.
	block     int64
	cuts      []int64
	clusters  [][]int
	clusterOf []int  // node ID -> cluster index, -1 for singletons
	msgNode   []bool // fires through the messaging-aware cluster path
	sends     []bool // filter's work function contains Send statements

	// Messaging runtime over the engine's ring positions; pending is nil
	// when the graph has none.
	teleport

	// Segment position: the engine runs segIters logical iterations per
	// segment, with base iterations retired by earlier segments
	// (checkpointed restarts); MappedEngine.iter is the cycle position
	// within it. A zero-skew plan runs one open segment from iteration 0
	// (base 0, cycle position = iteration) that reach extends.
	base     int64
	segIters int64
}

// maxStage is the last stage offset: the prologue/epilogue length.
func (sw *swpState) maxStage() int64 { return int64(sw.numLevels-1) * sw.batch }

// completed converts a cycle position into fully-retired logical
// iterations (those every stage has finished).
func (sw *swpState) completed(cycle int64) int64 {
	return min(max(cycle-sw.maxStage(), 0), sw.segIters)
}

// span returns how many iterations the cycle at position t covers, with
// left cycles remaining in the epoch: the plan's block, cut at the epoch's
// end and before the next scheduled worker fault, which must meet the top
// of its own cycle.
func (sw *swpState) span(t int64, left int) int64 {
	k := min(sw.block, int64(left))
	for _, c := range sw.cuts {
		if c > t {
			return min(k, c-t)
		}
	}
	return k
}

// stageClock is one stage level's position in the cycle at hand, computed
// once per cycle for every step and in-edge at that level.
type stageClock struct {
	// fi is the first logical iteration (1-based, within the segment) the
	// level's steps fire this cycle; gated reports whether they fire at all.
	fi    int64
	gated bool
	// ship is how many iterations of the level's staged output the flush at
	// the end of this cycle carries: every iteration since the last flush
	// when the cycle reaches a batch boundary or the segment's last
	// iteration, else 0 — no flush, and no matching receive.
	ship int64
}

// tick sets every level's clock for the cycle at position t covering k
// iterations.
func (sw *swpState) tick(clock []stageClock, t, k int64) {
	for l := range clock {
		c := &clock[l]
		c.fi = t - int64(l)*sw.batch + 1
		c.gated = c.fi >= 1 && c.fi <= sw.segIters
		c.ship = 0
		if last := c.fi + k - 1; c.gated && (last%sw.batch == 0 || last == sw.segIters) {
			c.ship = last - (c.fi-1)/sw.batch*sw.batch
		}
	}
}

// reach extends a zero-skew plan's open segment to cover cycle position
// end. A skewed segment's length is fixed when it starts: its epilogue and
// last flush are scheduled against it.
func (sw *swpState) reach(end int64) {
	if sw.maxStage() == 0 && sw.segIters < end {
		sw.segIters = end
	}
}

// newSWPState builds the engine's stage plan. Without Options.Stages that
// is the zero-skew plan. A plan the caller supplies is validated against
// the graph: complete non-negative levels, clusters at one level (feedback
// edges inside one cluster), cross-cluster forward edges strictly
// increasing in level, and the full messaging hull inside a single cluster.
// That every cluster sits on one worker is validAssign's to check, of the
// first assignment as of every later one.
func newSWPState(g *ir.Graph, s *sched.Schedule, opts Options) (*swpState, error) {
	n := len(g.Nodes)
	sw := &swpState{
		teleport:  teleport{g: g, sch: s, trace: opts.Trace},
		numLevels: 1,
		batch:     1,
		block:     1,
		clusterOf: make([]int, n),
		msgNode:   make([]bool, n),
		sends:     make([]bool, n),
	}
	for i := range sw.clusterOf {
		sw.clusterOf[i] = -1
	}
	if opts.Faults != nil {
		for _, wf := range opts.Faults.WorkerFaults {
			sw.cuts = append(sw.cuts, wf.Iter)
		}
		slices.Sort(sw.cuts)
	}
	if opts.Stages == nil {
		// NewMappedOpts has already turned away what only clusters can host.
		sw.levels = make([]int, n)
		if opts.LocalWorkers == nil {
			sw.block = StageBatch
		}
		return sw, nil
	}
	if len(opts.Stages) != n {
		return nil, fmt.Errorf("exec: stage map covers %d of %d nodes", len(opts.Stages), n)
	}
	sw.levels = append([]int(nil), opts.Stages...)
	sw.batch = StageBatch
	for id, lv := range sw.levels {
		if lv < 0 {
			return nil, fmt.Errorf("exec: node %d has negative stage level %d", id, lv)
		}
		if lv+1 > sw.numLevels {
			sw.numLevels = lv + 1
		}
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
		if nd.SendsMessages() {
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

// swpStep is one slot in a worker's per-cycle firing order: a singleton
// node, or a whole stage cluster fired through the data-driven loop.
type swpStep struct {
	nodes   []*nodeRT
	level   int
	cluster bool
	// goal is the cluster members' firing targets for the cycle at hand.
	goal []int64
	// pre lists the cross-worker in-edges whose producer runs at this
	// step's stage: received immediately before the step fires.
	pre []swpIn
	// in is a singleton filter's input ring, nil for any other step, and
	// inBase + T*inPer is the ring's pushed position once its producer has
	// fired T steady iterations — all a sequential run has buffered when the
	// filter fires its T-th. A cycle of several iterations holds the ring to
	// that per iteration, so a firing that pops past its iteration's share
	// fails at the firing it fails at under the sequential engine.
	in            *wfunc.Ring
	inBase, inPer int64
}

// swpIn is one cross-worker in-edge with its producer's flush schedule: its
// link, or nil on a shard-boundary edge.
type swpIn struct {
	e        *ir.Edge
	l        *link
	q        *wfunc.Ring
	srcLevel int
}

// workerPlan is one worker's share of the stage plan: its steps in
// topological order, the in-edges received after the cycle's steps (those
// that advance the stage), and the per-level clock of the cycle at hand. It
// is topology data — planWorkers derives it once per buildTopology, not per
// Run or epoch.
type workerPlan struct {
	steps []*swpStep
	post  []swpIn
	clock []stageClock
}

// planWorkers builds every local worker's plan over the current topology
// and binds its filters' tapes.
func (me *MappedEngine) planWorkers() {
	sw := me.swp
	me.plans = make([]*workerPlan, me.Workers)
	for w, nodes := range me.order {
		pl := &workerPlan{clock: make([]stageClock, sw.numLevels)}
		units := map[int]*swpStep{}
		for _, n := range nodes {
			rt := me.nodes[n.ID]
			rt.bind(me)
			ci := sw.clusterOf[n.ID]
			clustered := ci >= 0 || sw.msgNode[n.ID] // a lone messaging endpoint fires through the cluster path too
			if ci < 0 {
				ci = -1 - n.ID // a singleton is its own unit
			}
			sp := units[ci]
			if sp == nil {
				sp = &swpStep{level: sw.levels[n.ID], cluster: clustered}
				units[ci] = sp
				pl.steps = append(pl.steps, sp)
			}
			sp.nodes = append(sp.nodes, rt) // me.order is topological, so nodes stay ordered
			if sp.cluster {
				sp.goal = append(sp.goal, 0)
			} else if rt.in != nil {
				e := n.InEdge()
				sp.in, sp.inBase = rt.in, me.initPushed[e.ID]
				sp.inPer = int64(me.Sch.Reps[e.Src.ID] * e.Src.PushPort(e.SrcPort))
			}
			for _, e := range n.In {
				if e == nil {
					continue
				}
				l := me.links[e.ID]
				if l == nil && me.localWorker(me.Assign[e.Src.ID]) {
					continue // both ends on this worker
				}
				in := swpIn{e: e, l: l, q: me.queues[e.ID], srcLevel: sw.levels[e.Src.ID]}
				if in.srcLevel == sp.level {
					sp.pre = append(sp.pre, in)
				} else {
					pl.post = append(pl.post, in)
				}
			}
		}
		me.plans[w] = pl
	}
}

// runWorker drives one worker through cycles cycles of the current epoch —
// the one run loop of every plan. A cycle covers k logical iterations (k =
// 1 but on a zero-skew plan's blocks); per cycle: for each gated step,
// receive the same-stage producer flushes due this cycle, fire the step's k
// iterations, and flush its staged cross-worker output at batch boundaries;
// then receive every stage-advancing producer flush scheduled for this
// cycle index.
func (me *MappedEngine) runWorker(w, lane, cycles int) (err error) {
	sw, pl := me.swp, me.plans[w]
	var cur *nodeRT // the node currently firing or flushing, for fault attribution
	defer func() {
		if r := recover(); r != nil {
			if wc, ok := r.(*workerCrash); ok {
				err = wc
				return
			}
			err = blame(r, cur, fmt.Sprintf("worker %d", w))
		}
	}()
	for done := 0; done < cycles; {
		t := me.iter + int64(done)
		k := sw.span(t, cycles-done)
		done += int(k)
		if me.sup != nil {
			if wf, ok := me.sup.takeWorker(w, t); ok {
				if err := me.workerFault(w, lane, t, wf); err != nil {
					return err
				}
			}
		}
		var t0 time.Duration
		if me.rec != nil {
			t0 = me.rec.Stamp()
		}
		sw.tick(pl.clock, t, k)
		for _, sp := range pl.steps {
			c := &pl.clock[sp.level]
			if !c.gated {
				continue
			}
			if c.ship > 0 {
				for _, in := range sp.pre {
					if err := me.recvEdge(in); err != nil {
						return err
					}
				}
			}
			if sp.cluster {
				// Every member's k logical iterations, interleaved at firing
				// granularity.
				for i, rt := range sp.nodes {
					sp.goal[i] = me.initFired[rt.node.ID] + (sw.base+c.fi+k-1)*int64(me.Sch.Reps[rt.node.ID])
				}
				fired, err := me.dataDriven(sp.nodes, sp.goal, "steady-state", &cur)
				me.live.progress.Add(fired)
				if err != nil {
					return err
				}
			} else {
				cur = sp.nodes[0]
				if err := me.fireIters(sp, sw.base+c.fi, k); err != nil {
					return err
				}
				me.live.progress.Add(int64(me.Sch.Reps[cur.node.ID]) * k)
			}
			if c.ship > 0 {
				for _, rt := range sp.nodes {
					cur = rt
					if err := me.flush(rt, c.ship); err != nil {
						return err
					}
				}
			}
			cur = nil
		}
		for _, in := range pl.post {
			if pl.clock[in.srcLevel].ship > 0 {
				if err := me.recvEdge(in); err != nil {
					return err
				}
			}
		}
		if me.rec != nil {
			end := me.rec.Stamp()
			me.rec.Slice(lane, fmt.Sprintf("worker %d", w), "cycle", t0, end)
		}
	}
	return nil
}

// fireIters fires a singleton step's k logical iterations from steady
// iteration from (1-based): reps firings each. Over more than one
// iteration a filter's input ring is held, per iteration, to what a
// sequential run buffers there (swpStep.in).
func (me *MappedEngine) fireIters(sp *swpStep, from, k int64) error {
	rt := sp.nodes[0]
	reps := int64(me.Sch.Reps[rt.node.ID])
	in := sp.in
	if in == nil || k == 1 {
		for r := reps * k; r > 0; r-- {
			if err := me.fire(rt); err != nil {
				return err
			}
		}
		return nil
	}
	top := in.Pushed
	defer func() { in.Pushed = top }()
	for T := from; T < from+k; T++ {
		in.Pushed = min(top, sp.inBase+T*sp.inPer)
		for r := reps; r > 0; r-- {
			if err := me.fire(rt); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush ships iters iterations of a node's staged cross-worker output as
// one batch per edge. Called at batch boundaries and at the node's last
// gated cycle, so the consumer's matching receive schedule drains every
// batch. It takes exactly produce × iters items, not whatever is staged:
// that is the producer-side rate check, so a filter that pushed less than
// it declared faults here, as a take naming it, instead of starving its
// consumer a stage later. A shard transport may keep what it is given, so
// it gets a new batch; a link's slot is filled in place.
func (me *MappedEngine) flush(rt *nodeRT, iters int64) error {
	n := rt.node
	for p, e := range n.Out {
		if e == nil || me.stage[e.ID] == nil {
			continue
		}
		k := me.Sch.Reps[n.ID] * n.PushPort(p) * int(iters)
		var err error
		if l := me.links[e.ID]; l == nil {
			err = remoteErr(me.remote.Send(e.ID, me.stage[e.ID].Take(make([]float64, 0, k), k), me.stopCh))
		} else if err = me.await(e, sideSend, k); err == nil {
			l.send(me.stage[e.ID], k)
			me.live.progress.Add(1)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// recvEdge receives one batch of a cross-worker or shard-boundary in-edge
// into its consumer queue, releasing a link's slot to its producer.
func (me *MappedEngine) recvEdge(in swpIn) error {
	if in.l == nil {
		batch, err := me.remote.Recv(in.e.ID, me.stopCh)
		if err == nil {
			in.q.Append(batch)
		}
		return remoteErr(err)
	}
	if err := me.await(in.e, sideRecv, in.q.Len()); err != nil {
		return err
	}
	in.l.recv(in.q)
	me.live.progress.Add(1)
	return nil
}

// remoteErr maps a shard transport's stop sentinel onto the quiet unwind.
func remoteErr(err error) error {
	if errors.Is(err, ErrRemoteStopped) {
		return errStopped
	}
	return err
}
