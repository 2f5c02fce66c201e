package serve

import (
	"fmt"
	"time"
)

// StuckError is a session's terminal error when the stuck-session watchdog
// declares one of its batches wedged: a single dispatch held a pool worker
// past Config.BatchTimeout. The diagnosis is worker-attributed, like the
// exec watchdog's blocked-state snapshots: it names which worker was lost
// to the batch and for how long, so an operator can tell a wedged kernel
// from a merely slow one.
type StuckError struct {
	Worker    int           // pool worker the batch wedged
	SessionID uint64        // session whose batch overstayed
	Program   string        // program the session runs
	Tenant    string        // tenant tag, for attribution in stats
	Elapsed   time.Duration // how long the batch had been running at detection
	Timeout   time.Duration // the configured BatchTimeout it exceeded
}

func (e *StuckError) Error() string {
	return fmt.Sprintf("serve: session %d (%s, tenant %q) stuck: batch held worker %d for %v (timeout %v)",
		e.SessionID, e.Program, e.Tenant, e.Worker, e.Elapsed.Round(time.Millisecond), e.Timeout)
}

// markOverdue is the watchdog's atomic check-and-claim: if the worker is
// still inside a batch that has outlived timeout, it is written off as
// lost and the wedged session returned. Holding h.mu across the claim
// closes the race with a batch that completes between check and verdict —
// end() and markOverdue serialize on the same lock, so a worker declared
// lost is provably still inside the overdue batch.
func (h *heartbeat) markOverdue(w *worker, timeout time.Duration) (*Session, time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.s == nil {
		return nil, 0, false
	}
	elapsed := time.Since(h.since)
	if elapsed < timeout {
		return nil, 0, false
	}
	if !w.lost.CompareAndSwap(false, true) {
		return nil, 0, false
	}
	return h.s, elapsed, true
}

// watch is the stuck-session watchdog loop: it samples every worker's
// heartbeat a few times per timeout window and writes off any worker whose
// batch has overstayed.
func (p *pool) watch() {
	defer p.watchWG.Done()
	tick := p.timeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-p.watchQ:
			return
		case <-t.C:
		}
		for _, w := range p.workerList() {
			if w.lost.Load() {
				continue
			}
			if s, elapsed, ok := w.hb.markOverdue(w, p.timeout); ok {
				p.declareStuck(w, s, elapsed)
			}
		}
	}
}

// declareStuck counts the lost worker and spawns a replacement so the pool
// keeps its configured parallelism, then quarantines the wedged session:
// whoever the verdict wakes reads the pool's counters already settled. The
// lost worker holds nothing but that session; its goroutine exits on its
// own if its kernel ever returns.
func (p *pool) declareStuck(w *worker, s *Session, elapsed time.Duration) {
	p.stuck.Add(1)
	p.mu.Lock()
	if !p.closed {
		p.spawnLocked()
		p.replaced.Add(1)
	}
	p.mu.Unlock()
	s.markStuck(w.id, elapsed, p.timeout)
}

// markStuck records the watchdog's verdict as the session's terminal
// error. First error wins: if the batch later limps home with its own
// error, the stuck diagnosis stands.
func (s *Session) markStuck(worker int, elapsed, timeout time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.srv.stuckCount.Add(1)
	s.failLocked(&StuckError{
		Worker:    worker,
		SessionID: s.ID,
		Program:   s.ver.name,
		Tenant:    s.opt.Tenant,
		Elapsed:   elapsed,
		Timeout:   timeout,
	})
}
