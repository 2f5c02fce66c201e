package exec

import (
	"sort"
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

// liveness is what the drive's watchdog reads of the mapped engine: the
// progress counter its workers bump on every batch moved and every firing,
// and the count of the driver's watchdog ticks, which dates every
// wait-state transition without a clock read.
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
	// while no crew runs.
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

// watchdog judges stalls of a mapped drive. It has no goroutine: the epoch
// driver, already waiting on its workers, passes it every tick of ticker,
// and tick compares the progress counter with the last one it saw.
type watchdog struct {
	interval time.Duration
	period   time.Duration // of ticker
	ticker   *time.Ticker
	g        *ir.Graph // names the nodes and edges in the report
	live     *liveness
	statuses []*nodeStatus
	// parked marks, per worker, one waiting at the epoch barrier: its nodes
	// are idle rather than running.
	parked []atomic.Bool
	last   int64     // the progress counter as tick last saw it
	moved  time.Time // when it last moved, or the epoch released its workers
}

// newWatchdog starts the ticker of a drive over every node's status,
// indexed by node ID. interval is the engine's Watchdog setting: 0 selects
// DefaultWatchdogInterval, negative disables detection (a nil watchdog).
func newWatchdog(interval time.Duration, g *ir.Graph, live *liveness, statuses []*nodeStatus, parked []atomic.Bool) *watchdog {
	if interval < 0 {
		return nil
	}
	if interval == 0 {
		interval = DefaultWatchdogInterval
	}
	period := max(interval/4, 5*time.Millisecond)
	return &watchdog{interval: interval, period: period, ticker: time.NewTicker(period),
		g: g, live: live, statuses: statuses, parked: parked}
}

// reset opens the window at an epoch's release: between epochs nothing
// moves by design.
func (w *watchdog) reset(now time.Time) {
	w.last, w.moved = w.live.progress.Load(), now
}

// tick judges the drive at time now and returns the report once
// progress has stood still for the interval. A frozen counter alone is not
// proof of a wedge: a node can legitimately compute for longer than the
// interval without moving an item. So while a node on an unparked worker
// reports running, the verdict waits for 4× the interval (a truly wedged
// kernel never moves the counter again, so it is still caught; no abort
// reaches it, and the epoch writes its worker off). With every worker
// parked the epoch is over, its arrivals queued, which is no stall.
func (w *watchdog) tick(now time.Time) *DeadlockError {
	t := w.live.ticks.Add(1)
	if cur := w.live.progress.Load(); cur != w.last {
		w.last, w.moved = cur, now
		return nil
	}
	still := now.Sub(w.moved)
	if still < w.interval {
		return nil
	}
	running, released := false, false
	for _, st := range w.statuses {
		if !w.parked[st.worker].Load() {
			released = true
			running = running || waitState(st.state.Load()) == wsRunning
		}
	}
	if !released || running && still < 4*w.interval {
		return nil
	}
	return w.report(t)
}

// report builds the deadlock description from the sampled statuses at
// tick now.
func (w *watchdog) report(now int64) *DeadlockError {
	return deadlockReport("mapped", w.interval, w.g, func(n *ir.Node) (FilterStatus, int, bool) {
		st := w.statuses[n.ID]
		state := waitState(st.state.Load())
		fs := FilterStatus{Worker: st.worker, State: waitStates[state],
			Buffered: int(st.buffered.Load()), Blocked: time.Duration(now-st.since.Load()) * w.period}
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
