package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamit/internal/faults"
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

	sup *supervisor

	// prof and rec are the observability hooks; nil when disabled.
	prof *obs.Profiler
	rec  *obs.Recorder

	nodes  []*dynNodeRT
	popped int64

	// Per-run supervision state.
	progress int64
	statuses []*nodeStatus
}

type dynNodeRT struct {
	node  *ir.Node
	state *wfunc.State
	// fired counts completed firings (the fault injector's index).
	fired int64
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
	d := &DynamicEngine{G: g, Backend: opts.Backend, ChanCap: 4096, Watchdog: opts.Watchdog, rec: opts.Trace}
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
	d.nodes = make([]*dynNodeRT, len(g.Nodes))
	for _, n := range g.Nodes {
		rt := &dynNodeRT{node: n}
		if n.Kind == ir.NodeFilter {
			if rt.state, err = freshState(n); err != nil {
				return nil, err
			}
		}
		d.nodes[n.ID] = rt
	}
	return d, nil
}

// SinkItems returns the total items consumed by sinks in the last Run.
func (d *DynamicEngine) SinkItems() int64 { return atomic.LoadInt64(&d.popped) }

// SupervisionReport renders per-filter fault counters (empty when the
// engine is unsupervised or nothing was injected).
func (d *DynamicEngine) SupervisionReport() string { return d.sup.Report() }

// Degraded returns per-filter fault counters (nil when unsupervised).
func (d *DynamicEngine) Degraded() map[string]DegradedStats {
	if d.sup == nil {
		return nil
	}
	return d.sup.Stats()
}

// Run executes until the sinks have consumed at least sinkItems items.
func (d *DynamicEngine) Run(sinkItems int64) error {
	return d.run(sinkItems, nil)
}

func (d *DynamicEngine) run(sinkItems int64, budget []int64) error {
	done := make(chan struct{})
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(func() { close(done) }) }
	atomic.StoreInt64(&d.popped, 0)
	atomic.StoreInt64(&d.progress, 0)
	d.statuses = make([]*nodeStatus, len(d.G.Nodes))
	for _, n := range d.G.Nodes {
		d.statuses[n.ID] = newNodeStatus(n.Name)
	}
	wd := newWatchdog("dynamic", d.Watchdog, &d.progress, d.statuses, stop)

	chans := make([]chan float64, len(d.G.Edges))
	for _, e := range d.G.Edges {
		capacity := d.ChanCap
		if len(e.Initial) >= capacity {
			capacity = len(e.Initial) + d.ChanCap
		}
		ch := make(chan float64, capacity)
		for _, v := range e.Initial {
			ch <- v
		}
		chans[e.ID] = ch
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(d.G.Nodes))
	for _, rt := range d.nodes {
		wg.Add(1)
		go func(rt *dynNodeRT) {
			defer wg.Done()
			defer d.statuses[rt.node.ID].set(stDone, "", 0, -1)
			defer func() {
				if r := recover(); r != nil {
					if _, isStop := r.(stopSignal); !isStop {
						errs <- asExecError(rt.node.Name, rt.fired, r)
						stop()
					}
				}
			}()
			d.runDynNode(rt, chans, done, sinkItems, stop, budget)
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

func (d *DynamicEngine) runDynNode(rt *dynNodeRT, chans []chan float64, done chan struct{}, target int64, stop func(), budget []int64) {
	n := rt.node
	st := d.statuses[n.ID]
	var pst *obs.FilterStats
	if d.prof != nil {
		pst = d.prof.At(n.ID)
	}
	// Build tapes.
	ins := make([]*dynIn, len(n.In))
	for p, e := range n.In {
		if e == nil {
			continue
		}
		ins[p] = &dynIn{
			ch: chans[e.ID], done: done,
			st: st, progress: &d.progress, edge: e.String(), srcID: e.Src.ID,
			prof: pst,
		}
		if n.IsSink() && budget == nil {
			ins[p].count = &d.popped
			ins[p].target = target
			ins[p].stop = stop
		}
	}
	outs := make([]*dynOut, len(n.Out))
	for p, e := range n.Out {
		if e == nil {
			continue
		}
		outs[p] = &dynOut{
			ch: chans[e.ID], done: done,
			st: st, progress: &d.progress, edge: e.String(), dstID: e.Dst.ID,
			prof: pst,
		}
	}

	var runner *workRunner
	if n.Kind == ir.NodeFilter && n.Filter.WorkFn == nil {
		runner = newWorkRunner(n.Filter.Kernel, rt.state, d.Backend)
	}

	// Filter tapes, wrapped in counting adapters when profiling.
	var fIn, fOut wfunc.Tape
	if n.Kind == ir.NodeFilter {
		if len(ins) > 0 && ins[0] != nil {
			fIn = ins[0]
			if pst != nil {
				fIn = &obsTape{inner: ins[0], st: pst}
			}
		}
		if len(outs) > 0 && outs[0] != nil {
			fOut = outs[0]
			if pst != nil {
				fOut = &obsTape{inner: outs[0], st: pst, lenFn: outs[0].Len}
			}
		}
	}

	for budget == nil || rt.fired < budget[n.ID] {
		select {
		case <-done:
			panic(stopSignal{})
		default:
		}
		var start time.Time
		var stall0 int64
		if pst != nil || d.rec != nil {
			start = time.Now()
			if pst != nil {
				stall0 = pst.StallNanos()
			}
		}
		switch n.Kind {
		case ir.NodeFilter:
			tIn, tOut := fIn, fOut
			if d.sup != nil {
				if fault, ok := d.sup.take(n.Name, rt.fired); ok {
					traceFault(d.rec, n.ID, n.Name, fault.Kind.String())
					switch fault.Kind {
					case faults.Panic:
						panic(&ExecError{Filter: n.Name, Op: "injected panic", Iteration: rt.fired})
					case faults.Stall:
						// Wedge like a hung kernel until the watchdog (or
						// another node's completion) aborts the run.
						st.set(stStalled, "", 0, -1)
						<-done
						panic(stopSignal{})
					case faults.Corrupt:
						tOut = corruptOut(tOut)
					}
				}
			}
			if n.Filter.WorkFn != nil {
				n.Filter.WorkFn(tIn, tOut, rt.state)
			} else if err := runner.run(tIn, tOut, nil, nil); err != nil {
				panic(&ExecError{Filter: n.Name, Op: "work", Iteration: rt.fired, Err: err})
			}
		case ir.NodeSplitter:
			if n.SJ.Kind == ir.SJDuplicate {
				v := ins[0].Pop()
				for p := range outs {
					if outs[p] != nil {
						outs[p].Push(v)
					}
				}
			} else {
				for p := range outs {
					for k := 0; k < n.SJ.Weights[p]; k++ {
						v := ins[0].Pop()
						if outs[p] != nil {
							outs[p].Push(v)
						}
					}
				}
			}
		case ir.NodeJoiner:
			for p := range ins {
				if ins[p] == nil {
					continue
				}
				for k := 0; k < n.SJ.Weights[p]; k++ {
					outs[0].Push(ins[p].Pop())
				}
			}
		}
		rt.fired++
		if pst != nil || d.rec != nil {
			d.noteFiring(n, pst, start, stall0)
		}
	}
}

// noteFiring credits one dynamic-engine firing. Demand-driven pops and
// pushes can block mid-firing, so the blocked time (accumulated by the
// tapes into StallNanos during this firing) is subtracted from the work
// measurement; the trace slice keeps the full elapsed span, which is what
// the timeline viewer should show.
func (d *DynamicEngine) noteFiring(n *ir.Node, pst *obs.FilterStats, start time.Time, stall0 int64) {
	elapsed := time.Since(start)
	if pst != nil {
		pst.AddFiring()
		if n.Kind == ir.NodeFilter {
			work := elapsed - time.Duration(pst.StallNanos()-stall0)
			if work < 0 {
				work = 0
			}
			pst.AddWork(work)
		} else {
			profileSJ(pst, n)
		}
	}
	if d.rec != nil && n.Kind == ir.NodeFilter {
		end := d.rec.Stamp()
		d.rec.Slice(n.ID, n.Name, "firing", end-elapsed, end)
	}
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
	progress *int64
	edge     string
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
			if t.progress != nil {
				atomic.AddInt64(t.progress, 1)
			}
			continue
		default:
		}
		// Blocking path: record who we wait on for the watchdog.
		if t.st != nil {
			t.st.set(stWaitRecv, t.edge, len(t.buf)-t.head, t.srcID)
		}
		var t0 time.Time
		if t.prof != nil {
			t0 = time.Now()
		}
		select {
		case v := <-t.ch:
			t.buf = append(t.buf, v)
			if t.progress != nil {
				atomic.AddInt64(t.progress, 1)
			}
			if t.prof != nil {
				t.prof.AddStall(time.Since(t0))
			}
			if t.st != nil {
				t.st.set(stRunning, "", 0, -1)
			}
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
	progress *int64
	edge     string
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
		if t.progress != nil {
			atomic.AddInt64(t.progress, 1)
		}
		return
	default:
	}
	// Blocking path: record who we wait on for the watchdog.
	if t.st != nil {
		t.st.set(stWaitSend, t.edge, len(t.ch), t.dstID)
	}
	var t0 time.Time
	if t.prof != nil {
		t0 = time.Now()
	}
	select {
	case t.ch <- v:
		if t.progress != nil {
			atomic.AddInt64(t.progress, 1)
		}
		if t.prof != nil {
			t.prof.AddStall(time.Since(t0))
		}
		if t.st != nil {
			t.st.set(stRunning, "", 0, -1)
		}
	case <-t.done:
		panic(stopSignal{})
	}
}
