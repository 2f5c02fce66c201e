package exec

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Node wait states reported by the watchdog.
const (
	stRunning  = "running"
	stWaitRecv = "waiting recv"
	stWaitSend = "waiting send"
	stInWork   = "in work"
	stStalled  = "stalled (injected)"
	stDone     = "done"
)

// nodeStatus is one node's observable wait state, updated by its goroutine
// around every potentially-blocking operation and sampled by the watchdog
// when progress stops.
type nodeStatus struct {
	name   string
	worker int // mapped-engine worker running the node (-1: not mapped)

	mu        sync.Mutex
	state     string
	edge      string // "Src->Dst" when blocked on a tape
	buffered  int    // items visible to the node on that tape
	blockedOn int    // node ID this node waits on (-1: none)
	since     time.Time
}

func newNodeStatus(name string) *nodeStatus {
	return &nodeStatus{name: name, worker: -1, state: stRunning, blockedOn: -1, since: time.Now()}
}

// set records a (possibly blocking) state transition.
func (s *nodeStatus) set(state, edge string, buffered, blockedOn int) {
	s.mu.Lock()
	s.state, s.edge, s.buffered, s.blockedOn = state, edge, buffered, blockedOn
	s.since = time.Now()
	s.mu.Unlock()
}

// snapshot returns the current state as a FilterStatus.
func (s *nodeStatus) snapshot() (FilterStatus, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return FilterStatus{
		Name:     s.name,
		Worker:   s.worker,
		State:    s.state,
		Edge:     s.edge,
		Buffered: s.buffered,
		Blocked:  time.Since(s.since),
	}, s.blockedOn
}

// watchdog detects engine-wide stalls: it samples a shared progress
// counter (incremented on every item/batch moved and firing completed)
// and, when the counter freezes for the configured interval, collects
// every node's wait state, traces the wait-cycle, and aborts the run.
type watchdog struct {
	engine   string // "mapped" or "dynamic"
	interval time.Duration
	progress *int64
	statuses []*nodeStatus
	stop     func() // aborts the run (idempotent)

	quit chan struct{}
	wg   sync.WaitGroup

	mu  sync.Mutex
	err *DeadlockError
}

// newWatchdog starts the monitor goroutine. progress must be updated with
// atomic adds; statuses is indexed by node ID (nil entries are ignored).
// interval is the engine's Watchdog setting: 0 selects
// DefaultWatchdogInterval, negative disables detection (a nil watchdog,
// whose finish reports nothing).
func newWatchdog(engine string, interval time.Duration, progress *int64, statuses []*nodeStatus, stop func()) *watchdog {
	if interval < 0 {
		return nil
	}
	if interval == 0 {
		interval = DefaultWatchdogInterval
	}
	w := &watchdog{
		engine: engine, interval: interval, progress: progress,
		statuses: statuses, stop: stop, quit: make(chan struct{}),
	}
	w.wg.Add(1)
	go w.run()
	return w
}

func (w *watchdog) run() {
	defer w.wg.Done()
	tick := w.interval / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	last := atomic.LoadInt64(w.progress)
	lastChange := time.Now()
	for {
		select {
		case <-w.quit:
			return
		case <-t.C:
		}
		cur := atomic.LoadInt64(w.progress)
		if cur != last {
			last, lastChange = cur, time.Now()
			continue
		}
		if time.Since(lastChange) < w.interval {
			continue
		}
		// A frozen counter alone is not proof of a wedge: a node can
		// legitimately compute for longer than the interval without moving
		// an item. Declare deadlock at the interval only when every live
		// node is blocked on a tape; while something still reports running,
		// hold off until a generous multiple has passed (a truly wedged
		// kernel never moves the counter again, so it is still caught).
		if w.anyRunning() && time.Since(lastChange) < 4*w.interval {
			continue
		}
		w.mu.Lock()
		w.err = w.report()
		w.mu.Unlock()
		w.stop()
		return
	}
}

// anyRunning reports whether any node claims to be computing (rather than
// blocked on a tape, stalled, or done).
func (w *watchdog) anyRunning() bool {
	for _, st := range w.statuses {
		if st == nil {
			continue
		}
		st.mu.Lock()
		s := st.state
		st.mu.Unlock()
		if s == stRunning || s == stInWork {
			return true
		}
	}
	return false
}

// finish stops the monitor once the run has finished (or aborted), waits
// for it, and returns the deadlock report if the watchdog fired, else nil.
// (Typed nil must not escape into a plain error.)
func (w *watchdog) finish() error {
	if w == nil {
		return nil
	}
	close(w.quit)
	w.wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		return nil
	}
	return w.err
}

// report builds the deadlock description from the sampled statuses.
func (w *watchdog) report() *DeadlockError {
	e := &DeadlockError{Engine: w.engine, Interval: w.interval}
	blockedOn := make(map[int]int) // node ID -> node ID it waits on
	names := make(map[int]string)
	for id, st := range w.statuses {
		if st == nil {
			continue
		}
		snap, on := st.snapshot()
		names[id] = snap.Name
		if snap.State == stRunning || snap.State == stDone {
			continue
		}
		e.Blocked = append(e.Blocked, snap)
		if on >= 0 {
			blockedOn[id] = on
		}
	}
	e.Cycle = traceWaitCycle(blockedOn, names)
	return e
}

// traceWaitCycle follows blocked-on edges from some blocked node; if the
// walk revisits a node, the loop portion is the deadlock cycle. With no
// cycle (a stall, not a deadlock), the longest chain found is returned so
// the error still names who waits on whom.
func traceWaitCycle(blockedOn map[int]int, names map[int]string) []string {
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
					cyc = append(cyc, names[p])
				}
				cyc = append(cyc, names[n])
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
				bestChain = append(bestChain, names[p])
			}
		}
	}
	return bestChain
}
