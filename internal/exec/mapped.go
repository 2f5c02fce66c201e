package exec

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"streamit/internal/faults"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// MappedEngine executes a flattened stream graph on a fixed set of worker
// goroutines — one per fused partition, default GOMAXPROCS; one per node is
// the degenerate plan (NewParallelOpts). An edge between nodes on the same
// worker is one ring; an edge crossing workers is a staging ring at its
// producer, a lock-free SPSC ring of batch slots (link.go), and a ring at
// its consumer, whose positions all continue one another.
//
// This is the host-execution form of the partitioner's coarse-grained
// plans: the ExecPlan rewrite (fusion + executable fission) shrinks the
// graph, and the worker assignment packs it onto cores, so synchronization
// cost scales with the partition count, not the filter count. Results are
// bit-identical to the sequential Engine.
//
// An engine is built once and run many times: construction builds the
// worker topology, the first Run, Prepare or drive compiles every kernel
// once, and the first Run or Prepare runs the init schedule and keeps its
// outcome as the post-init prototype every later Run resets to in place.
//
// One run loop (mapped_swp.go) executes every plan, parameterised by a
// stage map. With Options.Stages the levels skew the workers — coarse-
// grained software pipelining — and feedback loops and teleport messaging
// run inside single-worker stage clusters; without it the engine runs the
// zero-skew plan, lockstep, which has no clusters and rejects both. A
// cycle is a block of up to StageBatch steady iterations, cut so that
// barriers and images are those of one iteration per cycle; a
// checkpointing drive's barriers fall at block ends.
//
// Fault tolerance: steady state runs in epochs, each a release of the
// drive's workers and a rendezvous at a barrier where all of them have
// completed the same cycle count and every cross-worker link has been
// drained (flush and receive schedules match). On a zero-skew plan the
// engine state at that barrier — filter states, firing counts, and
// consumer-queue residue — is bit-identical to a sequential engine's at
// the same iteration; on a skewed plan that holds at segment boundaries,
// and a barrier in between carries an SWPS trailer recording the skew plus
// any unflushed staging residue. The engine keeps a barrier as a copied
// record (barrier): the post-init prototype, and the rollback target a
// checkpointing drive takes at every barrier. Bytes exist only where state
// leaves the engine (WriteCheckpoint, in the sequential engine's image
// format) or enters it (a restore). An injected crash ("crash:workerN@iter")
// unwinds the epoch, the planner (Options.Replan) re-packs the graph onto
// the surviving workers, and the engine installs the last record there and
// resumes with a new worker set.
//
// Deadlock-freedom: every worker visits its nodes in a common linear
// extension of the dataflow order and receives each batch where its edge
// needs it (mapped_swp.go). The epoch driver, waiting on the workers,
// still judges stalls on its own ticker (fault injection can wedge a run
// deliberately), attributes blocked edges to workers in its DeadlockError,
// and writes off a worker wedged inside a kernel (epoch).
type MappedEngine struct {
	G   *ir.Graph
	Sch *sched.Schedule
	// Backend is the work-function execution substrate.
	Backend Backend
	// Workers is the worker-goroutine count; Assign[n.ID] names each
	// node's worker. Both shrink when crash recovery degrades the engine
	// onto the surviving workers.
	Workers int
	Assign  []int

	// CheckpointEvery takes a coordinated checkpoint at the first block end
	// at least N steady iterations on (N = 1: once per block). 0 checkpoints
	// only when worker faults are scheduled (then once per block).
	CheckpointEvery int

	// replan is the planner behind every re-plan (Options.Replan); nil on an
	// engine whose configuration never re-plans. depth (Options.QueueDepth)
	// and watchdog (Options.Watchdog) are fixed at construction.
	replan   func(workers int) ([]int, error)
	depth    int
	watchdog time.Duration

	// core holds the node records (which outlive epochs and re-plans), the
	// supervisor and the observability hooks, and fires every node.
	core

	// swp holds the stage plan and its runtime (stage levels, clusters,
	// messaging state, segment position). Lockstep is its zero-skew
	// instance, so it is never nil.
	swp *swpState

	// local masks the workers this engine instance actually runs when it
	// is one shard of a distributed run (Options.LocalWorkers); nil means
	// all workers are local.
	local []bool

	// shared compiles the work runners and stamps the init transient's
	// scratch engine; construction and a restore leave it nil (compile
	// nothing). proto is what every Run resets to, last the rollback target
	// (nil for none), kept in saved's storage.
	shared *Shared
	proto  *barrier
	last   *barrier
	saved  barrier

	order [][]*ir.Node // per-worker node lists in topological order
	// plans is each worker's schedule over the current topology
	// (mapped_swp.go), built by its first drive.
	plans []*workerPlan

	// Steady-state topology, built at construction and by every re-plan:
	// per-edge consumer rings, and for cross-worker edges a producer
	// staging ring and, within this process, the link.
	queues []*wfunc.Ring
	stage  []*wfunc.Ring
	links  []*link

	// Checkpoint bookkeeping: ready marks a completed setup or restore, iter
	// counts completed steady iterations, the schedule's post-init counters
	// initFired and initPushed and each edge's push per firing are what a
	// barrier's counters follow from, writes marks the nodes whose state a
	// firing can change. A restore decodes the image into decoded and each
	// edge's items into gather, both reused.
	ready                       bool
	iter                        int64
	initFired, initPushed, push []int64
	writes                      []bool
	gather                      [][]float64
	decoded                     ckptImage
	// fp is the graph fingerprint every image is written and checked under.
	fp uint64

	// Drive supervision: the worker set (nil between drives), the signals
	// that abort it — halted stays up until setup or a restore resets what
	// an aborted epoch left — and what its watchdog reads.
	crew     *crew
	stopCh   chan struct{}
	halted   atomic.Bool
	live     liveness
	statuses []*nodeStatus
	// lost, once set, names a worker an epoch wrote off: every later
	// setup, restore or epoch refuses with it, and no crew is joined.
	lost error
}

// barrier is the engine's state at a barrier, in plain copies. It stores
// no counters: at a barrier they follow from the position (firedAt, then
// pushedAt).
type barrier struct {
	base, segIters, cycle int64        // position: the segment, and the cycle in it
	items                 [][]float64  // by edge ID: the consumer ring's, then staging residue
	pending               [][]*message // by node ID
	// states holds, by node ID, a copy of every state a firing can write,
	// and the live object of every other: no firing writes that one, but a
	// Restart swaps it out through setState, so its pointer is kept. Nil
	// when the engine's states already hold the barrier's (a restore).
	states  []*wfunc.State
	profile []obs.FilterProfile // by node ID: the init phase's counts (prototype, when profiling)
}

// errStopped unwinds a worker goroutine after the run was aborted (watchdog
// deadlock, another worker's error, or Abort). It reaches a caller only
// after Abort.
var errStopped = errors.New("exec: run aborted")

// DefaultQueueDepth is the cross-worker link capacity in batches.
const DefaultQueueDepth = 2

// NewMappedOpts is the full-option constructor. Without Options.Stages the
// engine runs the zero-skew plan — lockstep: one batch per edge per block
// of steady iterations — so it rejects teleport messaging and feedback
// loops, which need finer-than-batch interleaving; a pipelined plan
// (Options.Stages set) lifts both, hosting them inside single-worker stage
// clusters.
func NewMappedOpts(g *ir.Graph, s *sched.Schedule, assign []int, workers int, opts Options) (*MappedEngine, error) {
	if why := g.LockstepBlocker(); why != "" && opts.Stages == nil {
		return nil, fmt.Errorf("exec: %s needs finer-than-batch interleaving; use a pipelined plan or the sequential Engine", why)
	}
	if opts.Replan == nil && opts.replans() {
		return nil, fmt.Errorf("exec: worker-crash recovery re-packs the graph through Options.Replan, and none is attached")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := opts.QueueDepth
	if depth == 0 {
		depth = DefaultQueueDepth
	}
	if depth < 1 {
		return nil, fmt.Errorf("exec: queue depth %d out of range (want >= 1 batches)", opts.QueueDepth)
	}
	if opts.CheckpointEvery < 0 {
		return nil, fmt.Errorf("exec: checkpoint interval %d out of range (want >= 0 iterations)", opts.CheckpointEvery)
	}
	me := &MappedEngine{G: g, Sch: s, fp: GraphFingerprint(g, s), Backend: opts.Backend, Workers: workers,
		Assign: append([]int(nil), assign...), depth: depth, gather: make([][]float64, len(g.Edges)),
		watchdog: opts.Watchdog, CheckpointEvery: opts.CheckpointEvery, replan: opts.Replan, writes: make([]bool, len(g.Nodes))}
	if opts.LocalWorkers != nil {
		if len(opts.LocalWorkers) != workers {
			return nil, fmt.Errorf("exec: LocalWorkers masks %d of %d workers", len(opts.LocalWorkers), workers)
		}
		if opts.Stages != nil {
			return nil, fmt.Errorf("exec: sharded execution requires a lockstep plan (no Stages)")
		}
		me.local = append([]bool(nil), opts.LocalWorkers...)
	}
	sw, err := newSWPState(g, s, opts)
	if err != nil {
		return nil, err
	}
	me.swp = sw
	me.core = core{eng: me, rec: opts.Trace, msgs: &sw.teleport, spec: make([]speculation, len(g.Nodes))}
	sw.host = &me.core
	if err := me.validAssign(me.Assign, workers); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	if opts.Profile {
		me.prof = obs.NewProfiler(nodeNames(g))
	}
	sup, err := newSupervisor(g, opts)
	if err != nil {
		return nil, err
	}
	me.sup = sup

	me.initFired, me.initPushed, me.push = initCounts(g, s)
	me.nodes = make([]*nodeRT, len(g.Nodes))
	me.statuses = make([]*nodeStatus, len(g.Nodes))
	for _, n := range g.Nodes {
		rt := &nodeRT{node: n}
		if n.Kind == ir.NodeFilter {
			if rt.state, err = freshState(n); err != nil {
				return nil, err
			}
			me.writes[n.ID] = writesState(n)
		}
		if sw.sends[n.ID] {
			rt.msg = &sender{t: &sw.teleport, node: n}
		}
		if me.prof != nil {
			rt.pst = me.prof.At(n.ID)
		}
		me.nodes[n.ID] = rt
		me.statuses[n.ID] = &nodeStatus{live: &me.live}
	}
	if err := me.buildTopology(); err != nil {
		return nil, err
	}
	return me, nil
}

// workerCrash is the panic payload of an injected worker crash. The
// worker's deferred recover catches it and hands it to the epoch driver,
// which rolls back to the last coordinated checkpoint and re-plans onto
// the surviving workers.
type workerCrash struct {
	worker int
	iter   int64
}

func (c *workerCrash) Error() string {
	return fmt.Sprintf("exec: worker %d crashed at iteration %d", c.worker, c.iter)
}

// Run executes the initialization phase and then iters steady-state
// iterations across the worker set. Every call restarts the stream: it
// resets the engine to the post-init prototype; use RunFromCheckpoint to
// resume a prior position instead.
func (me *MappedEngine) Run(iters int) error {
	if err := me.setup(); err != nil {
		return err
	}
	return me.runTo(int64(iters))
}

// compile builds the engine's Shared and every IL filter's work runner from
// its programs, once: resets and restores rewrite the states they hold.
func (me *MappedEngine) compile() error {
	if me.shared != nil {
		return nil
	}
	sh, err := NewShared(me.G, me.Sch, me.Backend)
	if err != nil {
		return err
	}
	for _, rt := range me.nodes {
		if n := rt.node; n.Kind == ir.NodeFilter && n.Filter.WorkFn == nil {
			rt.runner = newWorkRunnerCompiled(n.Filter.Kernel, rt.state, sh.progs[n.ID])
		}
	}
	me.shared = sh
	return nil
}

// setup resets the engine to the post-init prototype in the queues and
// states it already has, at a fresh segment at iteration 0.
func (me *MappedEngine) setup() error {
	if me.lost != nil {
		return me.lost
	}
	if err := me.compile(); err != nil {
		return err
	}
	if me.proto == nil {
		if err := me.capture(); err != nil {
			return err
		}
	} else if p := me.proto.profile; p != nil {
		for id, d := range p {
			me.prof.At(id).AddCounts(d)
		}
	}
	me.install(me.proto)
	me.last = nil
	me.ready = true
	return nil
}

// capture runs the init schedule on a scratch engine stamped from the
// Shared and sharing the engine's profiler and recorder, installs its
// outcome at iteration 0 and takes it as the prototype.
func (me *MappedEngine) capture() error {
	seq, err := me.shared.NewEngine(Options{})
	if err != nil {
		return err
	}
	seq.adoptObs(me.prof, me.rec)
	var before []obs.FilterProfile
	if me.prof != nil {
		before = me.prof.Snapshot()
	}
	if err := seq.RunInit(); err != nil {
		return err
	}
	for _, n := range me.G.Nodes {
		rt := seq.nodes[n.ID]
		if rt.fired != me.initFired[n.ID] {
			return fmt.Errorf("exec: internal: %s fired %d times during init, schedule says %d", n.Name, rt.fired, me.initFired[n.ID])
		}
		if rt.state != nil {
			copyState(me.nodes[n.ID].state, rt.state)
		}
	}
	for _, e := range me.G.Edges {
		a, b := seq.chans[e.ID].Stretches()
		me.refill(e, me.initPushed[e.ID], slices.Concat(a, b), nil)
	}
	copy(me.swp.pending, seq.pending)
	me.swp.base, me.swp.segIters, me.iter = 0, 0, 0
	p := &barrier{}
	me.take(p)
	if me.prof != nil {
		// Snapshots are sorted by name, and node names are unique.
		id := map[string]int{}
		for _, n := range me.G.Nodes {
			id[n.Name] = n.ID
		}
		p.profile = make([]obs.FilterProfile, len(me.G.Nodes))
		for i, a := range me.prof.Snapshot() {
			b := before[i]
			p.profile[id[a.Name]] = obs.FilterProfile{Firings: a.Firings - b.Firings,
				Pushed: a.Pushed - b.Pushed, Popped: a.Popped - b.Popped, Peeked: a.Peeked - b.Peeked}
		}
	}
	me.proto = p
	return nil
}

// take fills r with the barrier at hand, in the storage r already has, and
// returns how many values it copied.
func (me *MappedEngine) take(r *barrier) (n int) {
	sw := me.swp
	if r.states == nil {
		r.items, r.pending = make([][]float64, len(me.G.Edges)), make([][]*message, len(me.nodes))
		r.states = make([]*wfunc.State, len(me.nodes))
	}
	r.base, r.segIters, r.cycle = sw.base, sw.segIters, me.iter
	for id, rt := range me.nodes {
		switch {
		case !me.writes[id]:
			r.states[id] = rt.state
		case r.states[id] == nil:
			r.states[id] = rt.state.Clone()
			fallthrough
		default:
			n += copyState(r.states[id], rt.state)
		}
	}
	for _, e := range me.G.Edges {
		r.items[e.ID] = me.edgeItems(r.items[e.ID][:0], e)
		n += len(r.items[e.ID])
	}
	for i := range sw.pending {
		r.pending[i] = append(r.pending[i][:0], sw.pending[i]...)
	}
	return n
}

// install resets the engine to r in its own rings and states: counters
// follow from r's position, lent states go back by pointer.
func (me *MappedEngine) install(r *barrier) {
	sw := me.swp
	sw.base, sw.segIters, me.iter = r.base, r.segIters, r.cycle
	for id, rt := range me.nodes {
		rt.fired = me.firedAt(r, id)
		switch {
		case r.states == nil || r.states[id] == rt.state:
		case me.writes[id]:
			copyState(rt.state, r.states[id])
		default:
			rt.setState(r.states[id])
		}
	}
	for _, e := range me.G.Edges {
		items := r.items[e.ID]
		q := len(items) - me.staged(r, e)
		me.refill(e, pushedAt(e, me.nodes[e.Src.ID].fired, me.push), items[:q], items[q:])
	}
	for i := range sw.pending {
		sw.pending[i] = append(sw.pending[i][:0], r.pending[i]...)
	}
	me.halted.Store(false)
}

// done is how many of r's segment's iterations node id has completed at
// r's cycle: its stage's gated cycles, clamped to the segment.
func (r *barrier) done(sw *swpState, id int) int64 {
	return min(max(r.cycle-int64(sw.levels[id])*sw.batch, 0), r.segIters)
}

// firedAt is node id's firing count at r: its init count, and Reps for
// every iteration it has completed.
func (me *MappedEngine) firedAt(r *barrier, id int) int64 {
	return me.initFired[id] + (r.base+r.done(me.swp, id))*int64(me.Sch.Reps[id])
}

// staged is how many of edge e's items at r are unflushed residue in its
// producer's staging ring on the current topology (a re-plan moves those
// rings): on a skewed plan, whole iterations since the last flush point, a
// batch boundary or the segment's last firing.
func (me *MappedEngine) staged(r *barrier, e *ir.Edge) int {
	sw := me.swp
	if iseg := r.done(sw, e.Src.ID); me.stage[e.ID] != nil && sw.maxStage() > 0 && iseg < r.segIters {
		return int(iseg%sw.batch) * me.Sch.Reps[e.Src.ID] * int(me.push[e.ID])
	}
	return 0
}

// copyState overwrites dst's fields with src's in place and returns how
// many values it copied.
func copyState(dst, src *wfunc.State) int {
	n := copy(dst.Scalars, src.Scalars)
	for i, a := range src.Arrays {
		n += copy(dst.Arrays[i], a)
	}
	return n
}

// refill installs edge e's content at a barrier, in place, at the edge's
// absolute counts: pushed items in all, the last staged of them in the
// producer's staging ring (which ends at pushed), the queued ones before
// them in the consumer ring (which starts at the edge's popped count), and
// the link (if any) empty, whatever an aborted epoch left in it.
func (me *MappedEngine) refill(e *ir.Edge, pushed int64, queued, staged []float64) {
	at := pushed - int64(len(staged))
	me.queues[e.ID].Fill(at-int64(len(queued)), queued)
	if st := me.stage[e.ID]; st != nil {
		st.Fill(at, staged)
	}
	if l := me.links[e.ID]; l != nil {
		l.reset()
	}
}

// buildTopology derives the per-worker node lists and edge queues from the
// current Workers/Assign, at construction and re-plans.
func (me *MappedEngine) buildTopology() error {
	topo, err := me.G.TopoOrder()
	if err != nil {
		return err
	}
	me.order = make([][]*ir.Node, me.Workers)
	for _, n := range topo {
		w := me.Assign[n.ID]
		me.statuses[n.ID].worker = w
		if !me.localWorker(w) {
			continue
		}
		me.order[w] = append(me.order[w], n)
	}
	me.queues = make([]*wfunc.Ring, len(me.G.Edges))
	me.stage = make([]*wfunc.Ring, len(me.G.Edges))
	me.links = make([]*link, len(me.G.Edges))
	for _, e := range me.G.Edges {
		me.queues[e.ID] = wfunc.NewRing(0)
		srcLocal, dstLocal := me.localWorker(me.Assign[e.Src.ID]), me.localWorker(me.Assign[e.Dst.ID])
		if me.Assign[e.Src.ID] != me.Assign[e.Dst.ID] && (srcLocal || dstLocal) {
			// A cross-worker edge with a local end: a link, staged at a
			// local producer.
			if srcLocal {
				me.stage[e.ID] = wfunc.NewRing(0)
			}
			me.links[e.ID] = newLink(me.depth, &me.halted)
		}
	}
	me.plans = nil
	return nil
}

// runTo runs from the current barrier to logical iteration total: the rest
// of the segment, epilogue included. A fresh segment takes its length here
// and a zero-skew plan's open segment is extended; a skewed segment already
// under way can only be finished.
func (me *MappedEngine) runTo(total int64) error {
	sw := me.swp
	if sw.segIters == 0 || sw.maxStage() == 0 {
		sw.segIters = total - sw.base
	}
	if total != sw.base+sw.segIters {
		return fmt.Errorf("exec: pipelined checkpoint resumes a segment running to iteration %d; caller asked for %d", sw.base+sw.segIters, total)
	}
	if sw.segIters <= 0 {
		return nil
	}
	return me.driveTo(sw.segIters + sw.maxStage())
}

// driveTo runs epochs (epochEnd) until the cycle position me.iter reaches
// end, rolling back to the last coordinated checkpoint on worker crashes.
func (me *MappedEngine) driveTo(end int64) error {
	if err := me.compile(); err != nil {
		return err
	}
	every := me.CheckpointEvery
	if every <= 0 && me.sup != nil && me.sup.workerFaults != nil {
		// Crash recovery needs a rollback target; default to one per block:
		// a crash cuts its block, so it rolls back to the iteration it hit.
		every = 1
	}
	me.swp.block = StageBatch
	if every > 0 {
		me.swp.block = me.shared.block
		me.snapshot()
	}
	defer me.stopCrew()
	for me.iter < end {
		if me.crew == nil {
			me.startCrew()
		}
		n := int(me.swp.epochEnd(me.iter, end, every) - me.iter)
		if err := me.epoch(n); err != nil {
			var wc *workerCrash
			if errors.As(err, &wc) && me.last != nil {
				if rerr := me.recoverFromCrash(wc); rerr != nil {
					return rerr
				}
				continue
			}
			return err
		}
		me.iter += int64(n)
		if every > 0 {
			me.snapshot()
		}
	}
	return nil
}

// snapshot takes the rollback target at the current barrier, over the
// last one.
func (me *MappedEngine) snapshot() {
	n := me.take(&me.saved)
	me.last = &me.saved
	if me.rec != nil {
		me.rec.Instant(len(me.G.Nodes), "checkpoint", "checkpoint",
			fmt.Sprintf("iteration %d (%d bytes copied)", me.iter, 8*n))
	}
}

// crew is the worker goroutines of one drive over one topology, and the
// watchdog the epoch driver ticks in its wait on them.
type crew struct {
	release []chan int // per worker: the next epoch's cycles; nil for a worker with nothing to run
	arrive  chan error // one result per started worker per epoch
	started int
	parked  []atomic.Bool // per worker: waiting at the barrier
	wd      *watchdog
	wg      sync.WaitGroup
	// abort halts every link and closes the crew's stopCh: every waiting
	// transfer and parked filter unwinds.
	abort func()
}

// startCrew starts the current topology's workers, the one place a worker
// starts, and their watchdog's ticker. A worker waits at the barrier, runs
// each epoch it is released for and reports back, until the drive ends.
func (me *MappedEngine) startCrew() {
	if me.plans == nil {
		me.planWorkers()
	}
	c := &crew{release: make([]chan int, me.Workers), arrive: make(chan error, me.Workers),
		parked: make([]atomic.Bool, me.Workers)}
	stop := make(chan struct{})
	c.abort = sync.OnceFunc(func() {
		me.halt()
		close(stop)
	})
	me.stopCh = stop
	for _, st := range me.statuses {
		st.set(wsRunning, -1, 0, -1)
	}
	// Worker trace lanes sit above the node and schedule lanes.
	laneBase := len(me.G.Nodes) + 1
	for w, nodes := range me.order {
		c.parked[w].Store(true)
		if len(nodes) == 0 {
			continue
		}
		if me.rec != nil {
			me.rec.Lane(laneBase+w, fmt.Sprintf("worker %d (%d nodes)", w, len(nodes)))
		}
		c.release[w] = make(chan int, 1)
		c.started++
		c.wg.Add(1)
		go func(w int) {
			defer c.wg.Done()
			for cycles := range c.release[w] {
				err := me.runWorker(w, laneBase+w, cycles)
				if err != nil {
					c.abort()
				}
				c.parked[w].Store(true)
				c.arrive <- err
			}
		}(w)
	}
	c.wd = newWatchdog(me.watchdog, me.G, &me.live, me.statuses, c.parked)
	me.crew = c
}

// stopCrew ends the worker set, waiting at the barrier, and stops its
// watchdog's ticker. A crew with a written-off worker is not joined: that
// worker's goroutine exits on its own if its kernel ever returns.
func (me *MappedEngine) stopCrew() {
	c := me.crew
	if c == nil {
		return
	}
	for _, r := range c.release {
		if r != nil {
			close(r)
		}
	}
	if me.lost == nil {
		c.wg.Wait()
	}
	if c.wd != nil {
		c.wd.ticker.Stop()
	}
	me.crew = nil
}

// halt raises halted and wakes both sides of every link, to unwind.
func (me *MappedEngine) halt() {
	me.halted.Store(true)
	for _, l := range me.links {
		if l != nil {
			l.feed(sideSend)
			l.feed(sideRecv)
		}
	}
}

// epoch runs cycles macro-cycles across the worker set and waits for the
// barrier. On return without error every link is drained and the engine
// state is at a consistent iteration boundary; an epoch some worker
// unwound from is no barrier, even when only Abort stopped it. The wait is
// the drive's watchdog: each tick of its ticker judges the workers, and a
// verdict aborts them.
func (me *MappedEngine) epoch(cycles int) error {
	c := me.crew
	for w, r := range c.release {
		if r != nil {
			c.parked[w].Store(false)
			r <- cycles
		}
	}
	var ticks <-chan time.Time
	if c.wd != nil {
		c.wd.reset(time.Now())
		ticks = c.wd.ticker.C
	}
	// A crash is recoverable; any other failure wins over it, and both over
	// the unwinds they caused; a verdict wins over all.
	var crash, failed, stopped error
	var dead *DeadlockError
	var wedged <-chan time.Time
	for arrived := 0; arrived < c.started; {
		select {
		case <-ticks:
			// Judged when read: a tick kept from between epochs is dated
			// before the release.
			if dead = c.wd.tick(time.Now()); dead != nil {
				c.abort()
				ticks, wedged = nil, time.After(c.wd.interval)
			}
		case <-wedged:
			// A worker not back within the interval after the verdict is
			// wedged inside a kernel, where no abort reaches it: write it
			// off, as the serve pool does a lost worker, and refuse to run
			// from here on.
			for w, r := range c.release {
				if r != nil && !c.parked[w].Load() {
					me.ready, me.lost = false, fmt.Errorf("exec: worker %d wedged inside a kernel and was written off; the engine cannot run again", w)
				}
			}
			return dead
		case err := <-c.arrive:
			arrived++
			switch {
			case err == nil:
			case err == errStopped:
				stopped = err
			case errors.As(err, new(*workerCrash)):
				if crash == nil {
					crash = err
				}
			case failed == nil:
				failed = err
			}
		}
	}
	if dead != nil {
		return dead
	}
	return cmp.Or(failed, crash, stopped)
}

// recoverFromCrash degrades the engine onto the surviving workers: count
// the crash, re-plan the assignment, and roll back to the last coordinated
// checkpoint on the new topology.
func (me *MappedEngine) recoverFromCrash(wc *workerCrash) error {
	if me.Workers <= 1 {
		return &ExecError{Filter: fmt.Sprintf("worker %d", wc.worker), Op: "crash",
			Iteration: wc.iter, Err: fmt.Errorf("no surviving workers to recover onto")}
	}
	name := fmt.Sprintf("worker%d", wc.worker)
	me.sup.note(name, func(d *DegradedStats) { d.Crashes++ })
	traceRecovery(me.rec, len(me.G.Nodes)+1+wc.worker, name, "replan")
	assign, err := me.planOnto(me.Workers - 1)
	if err == nil {
		err = me.adopt(me.Workers-1, assign)
	}
	if err != nil {
		return fmt.Errorf("exec: rollback after worker %d crash: %w", wc.worker, err)
	}
	return nil
}

// planOnto asks the planner to re-pack the engine's graph onto workers and
// holds the answer to the engine's invariants. The planner and the engine
// index the same rewritten graph, so the assignment is by node ID.
func (me *MappedEngine) planOnto(workers int) ([]int, error) {
	assign, err := me.replan(workers)
	if err == nil {
		err = me.validAssign(assign, workers)
	}
	if err != nil {
		return nil, fmt.Errorf("re-plan onto %d workers: %w", workers, err)
	}
	return assign, nil
}

// adopt moves the engine onto a re-planned assignment: stop the worker set,
// rebuild the worker topology, and install the rollback target onto it.
func (me *MappedEngine) adopt(workers int, assign []int) error {
	me.stopCrew()
	me.Workers, me.Assign = workers, assign
	if err := me.buildTopology(); err != nil {
		return err
	}
	me.install(me.last)
	return nil
}

// validAssign holds an assignment — the constructor's, or a planner's
// answer — to the engine's invariants: every node covered, every worker in
// range, every stage cluster on a single worker.
func (me *MappedEngine) validAssign(assign []int, workers int) error {
	if len(assign) != len(me.G.Nodes) {
		return fmt.Errorf("assignment covers %d of %d nodes", len(assign), len(me.G.Nodes))
	}
	for id, w := range assign {
		if w < 0 || w >= workers {
			return fmt.Errorf("node %d assigned to worker %d of %d", id, w, workers)
		}
	}
	for ci, members := range me.swp.clusters {
		for _, id := range members[1:] {
			if assign[id] != assign[members[0]] {
				return fmt.Errorf("stage cluster %d splits across workers %d and %d", ci, assign[members[0]], assign[id])
			}
		}
	}
	return nil
}

// workerFault applies one injected worker-level fault at the top of a
// cycle, before the worker fires anything: Crash panics (the recover in
// runWorker hands it to the epoch driver for rollback), Stall wedges the
// worker for the watchdog to attribute, Slow sleeps briefly.
func (me *MappedEngine) workerFault(w, lane int, iter int64, wf faults.WorkerFault) error {
	name := fmt.Sprintf("worker%d", w)
	traceFault(me.rec, lane, name, wf.Kind.String())
	switch wf.Kind {
	case faults.Crash:
		panic(&workerCrash{worker: w, iter: iter})
	case faults.Stall:
		for _, n := range me.order[w] {
			me.statuses[n.ID].set(wsStalled, -1, 0, -1)
		}
		<-me.stopCh
		return errStopped
	case faults.Slow:
		me.sup.note(name, func(d *DegradedStats) { d.Slowed++ })
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// await returns once side s of cross-worker edge e's link can move; an
// abort unwinds it. Meanwhile the waiting node — the producer on a full
// link, the consumer on an empty one — shows the watchdog its wait state,
// with buffered items, and books the wait as its stall if profiled.
func (me *MappedEngine) await(e *ir.Edge, s, buffered int) error {
	l := me.links[e.ID]
	if l.ready(s) {
		return nil
	}
	state, self, peer := wsWaitSend, e.Src, e.Dst
	if s == sideRecv {
		state, self, peer = wsWaitRecv, e.Dst, e.Src
	}
	st, prof := me.statuses[self.ID], me.nodes[self.ID].pst
	st.set(state, e.ID, buffered, peer.ID)
	var t0 time.Time
	if prof != nil {
		t0 = time.Now()
	}
	err := l.wait(s)
	st.set(wsRunning, -1, 0, -1)
	if prof != nil {
		prof.AddStall(time.Since(t0))
	}
	return err
}

// inRing implements coreHost: an edge's consumer reads its consumer ring.
func (me *MappedEngine) inRing(e *ir.Edge) *wfunc.Ring { return me.queues[e.ID] }

// outRing implements coreHost: where an edge's producer pushes — the
// consumer ring itself on a same-worker edge, else the staging ring flushed
// into batches.
func (me *MappedEngine) outRing(e *ir.Edge) *wfunc.Ring {
	if st := me.stage[e.ID]; st != nil {
		return st
	}
	return me.queues[e.ID]
}

// park implements coreHost: the stalled filter's worker blocks until the
// watchdog aborts the run.
func (me *MappedEngine) park(rt *nodeRT) error {
	me.statuses[rt.node.ID].set(wsStalled, -1, 0, -1)
	<-me.stopCh
	return errStopped
}
