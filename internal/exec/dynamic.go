package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/wfunc"
)

// DynamicEngine executes stream graphs with data-dependent rates — the
// paper's stated future work ("applications such as compression that have
// dynamically varying flow rates"). No steady-state schedule exists for
// such programs, so execution is fully demand/data-driven: every node runs
// in its own goroutine, channels carry single items, Pop blocks until data
// arrives, and Peek transparently reads ahead. Static-rate filters run
// unchanged; filters built with KernelBuilder.Dynamic (or declared with
// `pop *` / `push *` in the language) may pop and push freely.
//
// Execution stops once the graph's sinks have consumed the requested
// number of items. Teleport messaging is not supported (its delivery
// semantics assume static rates, as the paper notes).
type DynamicEngine struct {
	G *ir.Graph
	// Backend is the work-function execution substrate (bytecode VM by
	// default).
	Backend Backend
	// ChanCap is the per-edge buffering in items (default 4096). Dynamic
	// graphs have no static buffer bound; a graph that needs more buffering
	// than this to make progress wedges with every producer blocked — the
	// watchdog then aborts the run with a *DeadlockError naming the blocked
	// wait-cycle. Raise ChanCap for bursty programs.
	ChanCap int

	// Watchdog is the stall-detection interval: 0 selects
	// DefaultWatchdogInterval, negative disables detection. Dynamic graphs
	// have no static deadlock-freedom guarantee, so the watchdog is the
	// engine's only diagnosis for insufficient buffering or rate mismatch.
	Watchdog time.Duration

	// core holds the node records, the supervisor and the observability
	// hooks, and fires every node.
	core
	popped int64

	// Per-run state: the watchdog's view, and the blocking tapes by edge ID
	// with the signal that stops them.
	live     liveness
	statuses []*nodeStatus
	ins      []*dynIn
	outs     []*dynOut
	done     chan struct{}
}

// stopSignal unwinds a node goroutine during shutdown.
type stopSignal struct{}

// NewDynamicOpts prepares a dynamic engine for a flattened graph (no
// schedule is needed or computed). Fault injection and the watchdog are
// supported; recovery policies are not — a dynamic filter's
// pushes go straight to live channels where consumers may already have
// seen them, so there is no rollback point. Use the sequential or mapped
// engine for retry/skip/restart semantics.
func NewDynamicOpts(g *ir.Graph, opts Options) (*DynamicEngine, error) {
	if len(g.Portals) > 0 || len(g.Constraints) > 0 {
		return nil, fmt.Errorf("exec: dynamic-rate execution does not support teleport messaging")
	}
	if len(g.Sinks()) == 0 {
		return nil, fmt.Errorf("exec: dynamic execution needs at least one sink to count output")
	}
	if opts.OnError.Active() {
		return nil, fmt.Errorf("exec: the dynamic engine cannot roll back firings (pushes reach live channels); recovery policies require the sequential or mapped engine")
	}
	d := &DynamicEngine{G: g, Backend: opts.Backend, ChanCap: 4096, Watchdog: opts.Watchdog}
	d.core = core{eng: d, rec: opts.Trace, nodes: make([]*nodeRT, len(g.Nodes))}
	if opts.Profile {
		d.prof = obs.NewProfiler(nodeNames(g))
	}
	if d.rec != nil {
		for _, n := range g.Nodes {
			if n.Kind == ir.NodeFilter {
				d.rec.Lane(n.ID, n.Name)
			}
		}
	}
	sup, err := newSupervisor(g, opts)
	if err != nil {
		return nil, err
	}
	d.sup = sup
	for _, n := range g.Nodes {
		rt := &nodeRT{node: n}
		if n.Kind == ir.NodeFilter {
			if rt.state, err = freshState(n); err != nil {
				return nil, err
			}
			if n.Filter.WorkFn == nil {
				rt.runner = newWorkRunner(n.Filter.Kernel, rt.state, d.Backend)
			}
		}
		if d.prof != nil {
			rt.pst = d.prof.At(n.ID)
		}
		d.nodes[n.ID] = rt
	}
	return d, nil
}

// SinkItems returns the total items consumed by sinks in the last Run.
func (d *DynamicEngine) SinkItems() int64 { return atomic.LoadInt64(&d.popped) }

// Run executes until the sinks have consumed at least sinkItems items.
func (d *DynamicEngine) Run(sinkItems int64) error {
	return d.run(sinkItems, nil)
}

func (d *DynamicEngine) run(sinkItems int64, budget []int64) error {
	d.done = make(chan struct{})
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(func() { close(d.done) }) }
	atomic.StoreInt64(&d.popped, 0)
	d.live.progress.Store(0)
	d.statuses = make([]*nodeStatus, len(d.G.Nodes))
	for _, n := range d.G.Nodes {
		d.statuses[n.ID] = &nodeStatus{name: n.Name, worker: -1, live: &d.live}
	}
	wd := newWatchdog("dynamic", d.Watchdog, d.G, &d.live, d.statuses, nil, stop)

	d.ins = make([]*dynIn, len(d.G.Edges))
	d.outs = make([]*dynOut, len(d.G.Edges))
	for _, e := range d.G.Edges {
		capacity := d.ChanCap
		if len(e.Initial) >= capacity {
			capacity = len(e.Initial) + d.ChanCap
		}
		ch := make(chan float64, capacity)
		for _, v := range e.Initial {
			ch <- v
		}
		in := &dynIn{ch: ch, done: d.done, st: d.statuses[e.Dst.ID], progress: &d.live.progress,
			edge: e.ID, srcID: e.Src.ID, prof: d.nodes[e.Dst.ID].pst}
		if e.Dst.IsSink() && budget == nil {
			in.count, in.target, in.stop = &d.popped, sinkItems, stop
		}
		d.ins[e.ID] = in
		d.outs[e.ID] = &dynOut{ch: ch, done: d.done, st: d.statuses[e.Src.ID], progress: &d.live.progress,
			edge: e.ID, dstID: e.Dst.ID, prof: d.nodes[e.Src.ID].pst}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(d.G.Nodes))
	for _, rt := range d.nodes {
		rt.bind(d)
		wg.Add(1)
		go func(rt *nodeRT) {
			defer wg.Done()
			defer d.statuses[rt.node.ID].set(wsDone, -1, 0, -1)
			defer func() {
				if r := recover(); r != nil {
					if _, isStop := r.(stopSignal); !isStop {
						errs <- asExecError(rt.node.Name, rt.fired, r)
						stop()
					}
				}
			}()
			for budget == nil || rt.fired < budget[rt.node.ID] {
				select {
				case <-d.done:
					return
				default:
				}
				if err := d.fire(rt); err != nil {
					errs <- err
					stop()
					return
				}
			}
		}(rt)
	}
	wg.Wait()
	if derr := wd.finish(); derr != nil {
		return derr
	}
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	if budget == nil {
		if got := atomic.LoadInt64(&d.popped); got < sinkItems {
			return fmt.Errorf("exec: dynamic run stopped after %d of %d sink items", got, sinkItems)
		}
	}
	return nil
}

// inTape implements coreHost: the edge's blocking reader.
func (d *DynamicEngine) inTape(e *ir.Edge) wfunc.Tape { return d.ins[e.ID] }

// outTape implements coreHost: the edge's blocking writer.
func (d *DynamicEngine) outTape(e *ir.Edge) wfunc.Tape { return d.outs[e.ID] }

// save implements coreHost; it is never called, because the engine rejects
// every policy that rolls a firing back (NewDynamicOpts).
func (d *DynamicEngine) save(*nodeRT) func() { return func() {} }

// park implements coreHost: the stalled filter's goroutine blocks like a
// hung kernel until the watchdog (or another node's completion) stops the
// run, then unwinds.
func (d *DynamicEngine) park(rt *nodeRT) error {
	d.statuses[rt.node.ID].set(wsStalled, -1, 0, -1)
	<-d.done
	panic(stopSignal{})
}

// dynIn is a blocking input tape: Pop and Peek receive from the channel on
// demand, buffering look-ahead locally.
type dynIn struct {
	ch     chan float64
	done   chan struct{}
	buf    []float64
	head   int
	count  *int64 // when set (sinks), pops count toward the run target
	target int64
	stop   func()

	// Watchdog instrumentation: wait state while blocked, progress on
	// every item received.
	st       *nodeStatus
	progress *atomic.Int64
	edge     int
	srcID    int
	// prof accumulates stall time while blocked (nil unless profiling).
	prof *obs.FilterStats
}

func (t *dynIn) fill(n int) {
	for len(t.buf)-t.head < n {
		if t.head > 1024 && t.head >= len(t.buf)/2 {
			t.buf = append([]float64(nil), t.buf[t.head:]...)
			t.head = 0
		}
		// Fast path: data already queued.
		select {
		case v := <-t.ch:
			t.buf = append(t.buf, v)
			t.progress.Add(1)
			continue
		default:
		}
		// Blocking path: record who we wait on for the watchdog.
		t0 := t.st.block(wsWaitRecv, t.edge, len(t.buf)-t.head, t.srcID, t.prof)
		select {
		case v := <-t.ch:
			t.buf = append(t.buf, v)
			t.progress.Add(1)
			t.st.unblock(t.prof, t0)
		case <-t.done:
			panic(stopSignal{})
		}
	}
}

// Peek implements wfunc.Tape with transparent read-ahead.
func (t *dynIn) Peek(i int) float64 {
	t.fill(i + 1)
	return t.buf[t.head+i]
}

// Pop implements wfunc.Tape.
func (t *dynIn) Pop() float64 {
	t.fill(1)
	v := t.buf[t.head]
	t.head++
	if t.count != nil {
		if atomic.AddInt64(t.count, 1) >= t.target {
			t.stop()
		}
	}
	return v
}

// Push is invalid on an input tape.
func (t *dynIn) Push(float64) {
	panic(tapeFault{op: "push", detail: "push on input tape"})
}

// dynOut is a blocking output tape.
type dynOut struct {
	ch   chan float64
	done chan struct{}

	// Watchdog instrumentation, as in dynIn.
	st       *nodeStatus
	progress *atomic.Int64
	edge     int
	dstID    int
	// prof accumulates stall time while blocked (nil unless profiling).
	prof *obs.FilterStats
}

// Len reports the items currently queued on the output channel (the
// profiler's occupancy sample).
func (t *dynOut) Len() int { return len(t.ch) }

// Peek is invalid on an output tape.
func (t *dynOut) Peek(int) float64 {
	panic(tapeFault{op: "peek", detail: "peek on output tape"})
}

// Pop is invalid on an output tape.
func (t *dynOut) Pop() float64 {
	panic(tapeFault{op: "pop", detail: "pop on output tape"})
}

// Push implements wfunc.Tape, blocking when the channel is full.
func (t *dynOut) Push(v float64) {
	// Fast path: channel has room.
	select {
	case t.ch <- v:
		t.progress.Add(1)
		return
	default:
	}
	// Blocking path: record who we wait on for the watchdog.
	t0 := t.st.block(wsWaitSend, t.edge, len(t.ch), t.dstID, t.prof)
	select {
	case t.ch <- v:
		t.progress.Add(1)
		t.st.unblock(t.prof, t0)
	case <-t.done:
		panic(stopSignal{})
	}
}
