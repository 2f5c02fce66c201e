package exec

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
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
// barriers and images are those of one iteration per cycle.
//
// Fault tolerance: steady state runs in epochs, each a release of the
// drive's workers and a rendezvous at a barrier where all of them have
// completed the same cycle count and every cross-worker link has been
// drained (flush and receive schedules match). On a zero-skew plan the
// engine state at that barrier — filter states, firing counts, and
// consumer-queue residue — is bit-identical to a sequential engine's at
// the same iteration; on a skewed plan that holds at segment boundaries,
// and a barrier in between carries an SWPS trailer recording the skew plus
// any unflushed staging residue. That barrier is where coordinated
// checkpoints are taken (WriteCheckpoint, sharing the sequential engine's
// image format) and where worker-crash recovery rolls back to: an injected
// crash (faults "crash:workerN@iter") unwinds the epoch, the planner
// (Options.Replan) re-packs the graph onto the surviving workers, and the
// engine restores the last checkpoint there and resumes with a new worker
// set.
//
// Deadlock-freedom: every worker visits its nodes in a common linear
// extension of the dataflow order and receives each batch where its edge
// needs it (mapped_swp.go). A watchdog still supervises the run (fault
// injection can wedge it deliberately), attributes blocked edges to
// workers in its DeadlockError, and has a worker wedged inside a kernel
// written off (epoch).
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

	// Depth is the cross-worker link capacity in batches (the
	// backpressure bound; default DefaultQueueDepth).
	Depth int

	// Watchdog is the stall-detection interval: 0 selects
	// DefaultWatchdogInterval, negative disables detection.
	Watchdog time.Duration

	// CheckpointEvery snapshots a coordinated checkpoint every N steady
	// iterations. 0 checkpoints only when worker faults are scheduled
	// (then every iteration, the rollback target for crash recovery).
	CheckpointEvery int

	// replan is the planner behind every re-plan (Options.Replan); nil on an
	// engine whose configuration never re-plans.
	replan func(workers int) ([]int, error)

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
	// nothing). proto is what every Run resets to.
	shared *Shared
	proto  *mappedProto

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

	// Checkpoint bookkeeping: ready marks a completed setup or restore,
	// iter counts completed steady iterations, initFired/initPushed are
	// the schedule-derived post-initialization counters (the prototype's
	// ring positions, and what an image's counters are checked against),
	// lastImg is the rollback target (empty for none). Every barrier image
	// reuses lastImg's buffer, img, imgSWP and, per edge, gather.
	ready      bool
	iter       int64
	initFired  []int64
	initPushed []int64
	lastImg    []byte
	img        ckptImage
	imgSWP     ckptSWP
	gather     [][]float64
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

// mappedProto is the post-init prototype: the init schedule's edge residue
// and pending messages, the field state of every filter whose work can
// change it (no other field is written after init), and the init phase's
// profile counts, replayed into every later Run's.
type mappedProto struct {
	items   [][]float64         // by edge ID
	pending [][]*message        // by node ID
	states  []*wfunc.State      // by node ID; nil for stateless nodes
	profile []obs.FilterProfile // by node ID; nil unless profiling
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
	me := &MappedEngine{G: g, Sch: s, fp: graphFingerprint(g, s), Backend: opts.Backend, Workers: workers,
		Assign: append([]int(nil), assign...), Depth: depth,
		Watchdog: opts.Watchdog, CheckpointEvery: opts.CheckpointEvery, replan: opts.Replan}
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
	me.core = core{eng: me, rec: opts.Trace, msgs: &sw.teleport}
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

	me.initFired, me.initPushed = initCounts(g, s)
	me.nodes = make([]*nodeRT, len(g.Nodes))
	me.statuses = make([]*nodeStatus, len(g.Nodes))
	for _, n := range g.Nodes {
		rt := &nodeRT{node: n}
		if n.Kind == ir.NodeFilter {
			if rt.state, err = freshState(n); err != nil {
				return nil, err
			}
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
			st := me.prof.At(id)
			for k := d.Firings; k > 0; k-- {
				st.AddFiring()
			}
			st.AddPushes(d.Pushed)
			st.AddPops(d.Popped)
			st.AddPeeks(d.Peeked)
		}
	}
	p := me.proto
	for id, st := range p.states {
		if st != nil {
			copyState(me.nodes[id].state, st)
		}
	}
	for id, rt := range me.nodes {
		rt.fired = me.initFired[id]
	}
	for _, e := range me.G.Edges {
		me.refill(e, me.initPushed[e.ID], p.items[e.ID], nil)
	}
	me.halted.Store(false)
	sw := me.swp
	for i := range sw.pending {
		sw.pending[i] = append(sw.pending[i][:0], p.pending[i]...)
	}
	sw.base, sw.segIters = 0, 0
	me.iter = 0
	me.lastImg = me.lastImg[:0]
	me.ready = true
	return nil
}

// capture runs the init schedule on a scratch engine stamped from the
// Shared and sharing the engine's profiler and recorder, installs its
// field states and keeps the prototype.
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
	p := &mappedProto{items: make([][]float64, len(me.G.Edges)), states: make([]*wfunc.State, len(me.G.Nodes))}
	for _, n := range me.G.Nodes {
		rt := seq.nodes[n.ID]
		if rt.fired != me.initFired[n.ID] {
			return fmt.Errorf("exec: internal: %s fired %d times during init, schedule says %d", n.Name, rt.fired, me.initFired[n.ID])
		}
		if rt.state == nil {
			continue
		}
		copyState(me.nodes[n.ID].state, rt.state)
		if n.Filter.WorkFn != nil || n.IsStateful() {
			p.states[n.ID] = rt.state
		}
	}
	for _, e := range me.G.Edges {
		a, b := seq.chans[e.ID].Stretches()
		p.items[e.ID] = append(append(make([]float64, 0, len(a)+len(b)), a...), b...)
	}
	p.pending = seq.pending
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

// copyState overwrites dst's fields with src's in place.
func copyState(dst, src *wfunc.State) {
	copy(dst.Scalars, src.Scalars)
	for i, a := range src.Arrays {
		copy(dst.Arrays[i], a)
	}
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
			me.links[e.ID] = newLink(me.Depth, &me.halted)
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

// driveTo runs epochs until the cycle position me.iter reaches end, rolling
// back to the last coordinated checkpoint on injected worker crashes.
func (me *MappedEngine) driveTo(end int64) error {
	every := me.CheckpointEvery
	if every <= 0 && me.sup.hasWorkerFaults() {
		// Crash recovery needs a rollback target; default to the finest
		// granularity so a crash replays at most one iteration.
		every = 1
	}
	if every > 0 {
		if err := me.snapshot(); err != nil {
			return err
		}
	}
	defer me.stopCrew()
	for me.iter < end {
		if me.crew == nil {
			if err := me.startCrew(); err != nil {
				return err
			}
		}
		n := int(end - me.iter)
		if every > 0 && n > every {
			n = every
		}
		if err := me.epoch(n); err != nil {
			var wc *workerCrash
			if errors.As(err, &wc) && len(me.lastImg) > 0 {
				if rerr := me.recoverFromCrash(wc); rerr != nil {
					return rerr
				}
				continue
			}
			return err
		}
		me.iter += int64(n)
		if every > 0 {
			if err := me.snapshot(); err != nil {
				return err
			}
		}
	}
	return nil
}

// snapshot records the coordinated checkpoint at the current barrier.
func (me *MappedEngine) snapshot() error {
	// The previous rollback target is dead once this one exists: write over it.
	img, err := me.checkpoint(me.lastImg, me.iter)
	if err != nil {
		return err
	}
	me.lastImg = img
	if me.rec != nil {
		me.rec.Instant(len(me.G.Nodes), "checkpoint", "checkpoint",
			fmt.Sprintf("iteration %d (%d bytes)", me.iter, len(img)))
	}
	return nil
}

// crew is the worker goroutines of one drive over one topology.
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

// startCrew starts the current topology's workers and their watchdog: the
// one place a worker starts. A worker waits at the barrier, runs each
// epoch it is released for and reports back, until the drive ends.
func (me *MappedEngine) startCrew() error {
	if err := me.compile(); err != nil {
		return err
	}
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
	c.wd = newWatchdog(me.Watchdog, me.G, &me.live, me.statuses, c.parked, c.abort)
	me.crew = c
	return nil
}

// stopCrew ends the worker set, waiting at the barrier, and its watchdog.
// A crew with a written-off worker is not joined: that worker's goroutine
// exits on its own if its kernel ever returns.
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
	c.wd.finish()
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
// unwound from is no barrier, even when only Abort stopped it.
func (me *MappedEngine) epoch(cycles int) error {
	c := me.crew
	for w, r := range c.release {
		if r != nil {
			c.parked[w].Store(false)
			r <- cycles
		}
	}
	// A crash is recoverable; any other failure wins over it, and both over
	// the unwinds they caused.
	var crash, failed, stopped error
	var verdict <-chan struct{}
	var wedged <-chan time.Time
	if c.wd != nil {
		verdict = c.wd.fired
	}
	for arrived := 0; arrived < c.started; {
		select {
		case <-verdict:
			verdict, wedged = nil, time.After(c.wd.interval)
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
			return c.wd.verdict()
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
	if derr := c.wd.verdict(); derr != nil {
		return derr
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
// rebuild the worker topology, and restore the last barrier image onto it.
func (me *MappedEngine) adopt(workers int, assign []int) error {
	me.stopCrew()
	me.Workers, me.Assign = workers, assign
	if err := me.buildTopology(); err != nil {
		return err
	}
	return me.applyImage(me.lastImg)
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
