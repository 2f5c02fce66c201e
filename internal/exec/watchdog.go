package exec

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamit/internal/ir"
)

// waitState is a node's wait state as a nodeStatus stores it; waitStates
// names it in deadlock reports.
type waitState int32

const (
	wsRunning waitState = iota
	wsWaitRecv
	wsWaitSend
	wsStalled
	wsWaitMsg // held by a messaging constraint (the data-driven loop only)
)

const stStalled = "stalled (injected)"

var waitStates = [...]string{wsRunning: "running", wsWaitRecv: "waiting recv", wsWaitSend: "waiting send",
	wsStalled: stStalled, wsWaitMsg: "waiting constraint"}

// liveness is what a watchdog reads of the mapped engine: the progress
// counter its workers bump on every batch moved and every firing, and the
// watchdog's own tick count, which dates every wait-state transition
// without a clock read.
type liveness struct {
	progress atomic.Int64
	ticks    atomic.Int64
}

// nodeStatus is one node's observable wait state, updated by its goroutine
// around every potentially-blocking operation and sampled by the watchdog
// when progress stops. Every field is a plain word: a transition takes no
// lock, reads no clock and formats nothing. The zero state is running.
type nodeStatus struct {
	// worker is the mapped-engine worker running the node; it changes only
	// while no watchdog runs.
	worker int
	live   *liveness

	state     atomic.Int32 // a waitState
	edge      atomic.Int64 // ID of the edge blocked on (-1: none)
	buffered  atomic.Int64 // items visible to the node on that edge
	blockedOn atomic.Int64 // node ID this node waits on (-1: none)
	since     atomic.Int64 // live.ticks at the transition
}

// set records a state transition: the node waits (state) on edge for node
// blockedOn with buffered items visible, or runs again (wsRunning, -1, 0, -1).
func (s *nodeStatus) set(state waitState, edge, buffered, blockedOn int) {
	s.edge.Store(int64(edge))
	s.buffered.Store(int64(buffered))
	s.blockedOn.Store(int64(blockedOn))
	s.since.Store(s.live.ticks.Load())
	s.state.Store(int32(state))
}

// watchdog detects stalls of the mapped engine: it samples the engine's
// progress counter once per tick and, when the counter freezes for the
// configured interval, collects every node's wait state, traces the
// wait-cycle, and aborts the run.
type watchdog struct {
	interval time.Duration
	tick     time.Duration
	g        *ir.Graph // names the nodes and edges in the report
	live     *liveness
	statuses []*nodeStatus
	// parked marks, per worker, one waiting at the epoch barrier: its nodes
	// are idle rather than running, and while every worker is parked the
	// driver is between epochs, which is no stall.
	parked []atomic.Bool
	stop   func() // aborts the run (idempotent)

	quit  chan struct{}
	wg    sync.WaitGroup
	err   atomic.Pointer[DeadlockError] // the report, once the watchdog fired
	fired chan struct{}                 // closed once err is set
}

// newWatchdog starts the monitor goroutine over every node's status,
// indexed by node ID. interval is the engine's Watchdog setting: 0 selects
// DefaultWatchdogInterval, negative disables detection (a nil watchdog,
// whose finish reports nothing).
func newWatchdog(interval time.Duration, g *ir.Graph, live *liveness, statuses []*nodeStatus, parked []atomic.Bool, stop func()) *watchdog {
	if interval < 0 {
		return nil
	}
	if interval == 0 {
		interval = DefaultWatchdogInterval
	}
	w := &watchdog{
		interval: interval, tick: max(interval/4, 5*time.Millisecond), g: g, live: live,
		statuses: statuses, parked: parked, stop: stop, quit: make(chan struct{}), fired: make(chan struct{}),
	}
	w.wg.Add(1)
	go w.run()
	return w
}

func (w *watchdog) run() {
	defer w.wg.Done()
	t := time.NewTicker(w.tick)
	defer t.Stop()
	last := w.live.progress.Load()
	var still time.Duration // how long the counter has stood still
	for {
		select {
		case <-w.quit:
			return
		case <-t.C:
		}
		now := w.live.ticks.Add(1)
		if cur := w.live.progress.Load(); cur != last || w.allParked() {
			last, still = cur, 0
			continue
		}
		if still += w.tick; still < w.interval {
			continue
		}
		// A frozen counter alone is not proof of a wedge: a node can
		// legitimately compute for longer than the interval without moving
		// an item. Declare deadlock at the interval only when every live
		// node is blocked on a tape; while something still reports running,
		// hold off until a generous multiple has passed (a truly wedged
		// kernel never moves the counter again, so it is still caught; no
		// abort reaches it, and the epoch writes its worker off).
		if w.anyRunning() && still < 4*w.interval {
			continue
		}
		w.err.Store(w.report(now))
		close(w.fired)
		w.stop()
		return
	}
}

// allParked reports whether every worker waits at the barrier.
func (w *watchdog) allParked() bool {
	for i := range w.parked {
		if !w.parked[i].Load() {
			return false
		}
	}
	return true
}

// anyRunning reports whether any node claims to be computing (rather than
// blocked on a tape, stalled, or idle at the barrier).
func (w *watchdog) anyRunning() bool {
	for _, st := range w.statuses {
		if waitState(st.state.Load()) == wsRunning && !w.parked[st.worker].Load() {
			return true
		}
	}
	return false
}

// verdict returns the deadlock report if the watchdog has fired, else nil.
func (w *watchdog) verdict() error {
	if w == nil {
		return nil
	}
	if e := w.err.Load(); e != nil {
		return e
	}
	return nil // a typed nil must not escape into a plain error
}

// finish stops the monitor once the drive has ended and waits for it.
func (w *watchdog) finish() {
	if w != nil {
		close(w.quit)
		w.wg.Wait()
	}
}

// report builds the deadlock description from the sampled statuses at
// tick now.
func (w *watchdog) report(now int64) *DeadlockError {
	return deadlockReport("mapped", w.interval, w.g, func(n *ir.Node) (FilterStatus, int, bool) {
		st := w.statuses[n.ID]
		state := waitState(st.state.Load())
		fs := FilterStatus{Worker: st.worker, State: waitStates[state],
			Buffered: int(st.buffered.Load()), Blocked: time.Duration(now-st.since.Load()) * w.tick}
		if edge := st.edge.Load(); edge >= 0 {
			fs.Edge = w.g.Edges[edge].String()
		}
		return fs, int(st.blockedOn.Load()), state != wsRunning
	})
}

// deadlockReport is the one assembly of a *DeadlockError: wait(n) tells
// whether node n of g waits and, if so, its status (Name is filled in here)
// and the node ID it waits on (-1: none); the wait-cycle is traced through
// those.
func deadlockReport(engine string, interval time.Duration, g *ir.Graph, wait func(*ir.Node) (FilterStatus, int, bool)) *DeadlockError {
	e := &DeadlockError{Engine: engine, Interval: interval}
	blockedOn := make(map[int]int) // node ID -> node ID it waits on
	for _, n := range g.Nodes {
		fs, on, waits := wait(n)
		if !waits {
			continue
		}
		fs.Name = n.Name
		e.Blocked = append(e.Blocked, fs)
		if on >= 0 {
			blockedOn[n.ID] = on
		}
	}
	e.Cycle = traceWaitCycle(blockedOn, g)
	return e
}

// traceWaitCycle follows blocked-on edges from some blocked node of g; if
// the walk revisits a node, the loop portion is the deadlock cycle. With no
// cycle (a stall, not a deadlock), the longest chain found is returned so
// the error still names who waits on whom.
func traceWaitCycle(blockedOn map[int]int, g *ir.Graph) []string {
	starts := make([]int, 0, len(blockedOn))
	for id := range blockedOn {
		starts = append(starts, id)
	}
	sort.Ints(starts) // deterministic reports
	var bestChain []string
	for _, id := range starts {
		visited := map[int]int{} // node -> position in path
		var path []int
		n := id
		for {
			if pos, seen := visited[n]; seen {
				// Cycle: path[pos:] plus the closing node.
				var cyc []string
				for _, p := range path[pos:] {
					cyc = append(cyc, g.Nodes[p].Name)
				}
				cyc = append(cyc, g.Nodes[n].Name)
				return cyc
			}
			visited[n] = len(path)
			path = append(path, n)
			next, ok := blockedOn[n]
			if !ok {
				break
			}
			n = next
		}
		if len(path) > len(bestChain) {
			bestChain = nil
			for _, p := range path {
				bestChain = append(bestChain, g.Nodes[p].Name)
			}
		}
	}
	return bestChain
}
