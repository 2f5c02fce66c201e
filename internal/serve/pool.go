package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// pool is the shared worker pool every session's steady-state iterations
// run on: one FIFO of runnable sessions under one lock. A session that
// becomes runnable joins the back; a worker whose session is still runnable
// after a batch puts it behind whatever else is queued and takes the head,
// so every runnable session gets a batch per round however many there are
// (round-robin — a session with a long request cannot starve a neighbour).
// Workers park on a condition variable, under the queue's own lock, when the
// queue is empty.
//
// With a batch timeout set, a watchdog goroutine samples every worker's
// heartbeat: a batch that overstays its deadline gets its session declared
// stuck, its worker written off as lost, and a replacement worker spawned —
// the pool keeps serving at full strength around a wedged kernel.
type pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*Session // runnable sessions; queue[head:] is live, oldest first
	head   int
	closed bool
	nextID int

	workers []*worker // live and lost; readers snapshot under mu

	timeout  time.Duration // batch deadline; 0 disables the watchdog
	watchQ   chan struct{} // closed to stop the watchdog
	watchWG  sync.WaitGroup
	stuck    atomic.Int64
	replaced atomic.Int64

	parks atomic.Int64
}

type worker struct {
	id   int
	hb   heartbeat
	lost atomic.Bool   // written off by the watchdog; exits after its batch
	done chan struct{} // closed when the scheduling loop returns
}

// heartbeat is the watchdog's view of what a worker is doing right now:
// the session whose batch it is running and since when. begin/end bracket
// runBatch; markOverdue is the watchdog's check-and-claim.
type heartbeat struct {
	mu    sync.Mutex
	s     *Session
	since time.Time
}

func (h *heartbeat) begin(s *Session) {
	h.mu.Lock()
	h.s, h.since = s, time.Now()
	h.mu.Unlock()
}

func (h *heartbeat) end() {
	h.mu.Lock()
	h.s = nil
	h.mu.Unlock()
}

func newPool(workers int, timeout time.Duration) *pool {
	p := &pool{timeout: timeout}
	p.cond = sync.NewCond(&p.mu)
	// The watchdog and Stats read p.workers (via workerList) concurrently,
	// so even construction appends need the lock.
	p.mu.Lock()
	for i := 0; i < workers; i++ {
		p.spawnLocked()
	}
	p.mu.Unlock()
	if timeout > 0 {
		p.watchQ = make(chan struct{})
		p.watchWG.Add(1)
		go p.watch()
	}
	return p
}

// spawnLocked starts one worker. Callers hold p.mu.
func (p *pool) spawnLocked() {
	w := &worker{id: p.nextID, done: make(chan struct{})}
	p.nextID++
	p.workers = append(p.workers, w)
	go func() {
		defer close(w.done)
		p.run(w)
	}()
}

// workerList snapshots the worker slice. Appends only ever replace the
// slice header under p.mu, so a snapshot stays valid while new workers
// land.
func (p *pool) workerList() []*worker {
	p.mu.Lock()
	ws := p.workers
	p.mu.Unlock()
	return ws
}

// popLocked takes the oldest queued session. Callers hold p.mu and have
// checked the queue is not empty. The popped prefix is reclaimed once it is
// at least as long as what is still queued, so a pop costs amortized O(1)
// and an empty queue always has len(p.queue) == 0.
func (p *pool) popLocked() *Session {
	s := p.queue[p.head]
	p.queue[p.head] = nil
	p.head++
	if p.head*2 >= len(p.queue) {
		n := copy(p.queue, p.queue[p.head:])
		clear(p.queue[n:])
		p.queue, p.head = p.queue[:n], 0
	}
	return s
}

// submit enqueues a session that just became runnable and wakes one parked
// worker for it. The caller must hold the session's scheduled flag (see
// Session.kickLocked): a session is in at most one place — the queue or a
// worker's hands — at any time.
func (p *pool) submit(s *Session) {
	p.mu.Lock()
	p.queue = append(p.queue, s)
	p.cond.Signal()
	p.mu.Unlock()
}

// next blocks until a session is runnable and returns it, or returns nil
// once the pool is closed. The wait is under the queue's own lock, so a
// submit cannot land between the emptiness check and the park.
func (p *pool) next() *Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 && !p.closed {
		p.parks.Add(1)
		p.cond.Wait()
	}
	if p.closed {
		return nil
	}
	return p.popLocked()
}

// rotate is a worker giving up a session that is still runnable after its
// batch: s goes behind whatever else is queued and the head comes back — s
// itself when nothing else waits, nil once the pool is closed. It does not
// signal: the queue is no longer than before, so no parked worker has
// anything new to do.
func (p *pool) rotate(s *Session) *Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	if len(p.queue) == 0 {
		return s
	}
	p.queue = append(p.queue, s)
	return p.popLocked()
}

// close stops the watchdog and joins every worker that is not written off
// as lost. A lost worker is wedged inside a kernel by definition; its
// goroutine exits on its own if the kernel ever returns.
func (p *pool) close() {
	if p.watchQ != nil {
		close(p.watchQ)
		p.watchWG.Wait()
	}
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	ws := p.workers
	p.mu.Unlock()
	for _, w := range ws {
		if w.lost.Load() {
			continue
		}
		<-w.done
	}
}

// run is one worker's scheduling loop: take the head of the queue, run one
// batch, and either rotate the session (still runnable) or come back for the
// next one. It returns when the pool closes or the watchdog writes the
// worker off.
func (p *pool) run(w *worker) {
	s := p.next()
	for s != nil {
		w.hb.begin(s)
		runnable := s.runBatch()
		w.hb.end()

		switch {
		case w.lost.Load():
			// The watchdog wrote this worker off while the batch overstayed
			// its deadline (the session is already marked stuck, so runnable
			// is false for it) — but if a replacement raced us here with a
			// healthy session, hand it back rather than strand it.
			if runnable {
				p.submit(s)
			}
			return
		case runnable:
			s = p.rotate(s)
		default:
			s = p.next()
		}
	}
}
