package serve

import (
	"errors"
	"fmt"
	"time"

	"streamit/internal/exec"
	"streamit/internal/faults"
	"streamit/internal/obs"
	"streamit/internal/wfunc"

	"sync"
)

// Serving errors. The HTTP layer maps these onto status codes (429 for
// admission, 409 for closed, 503 for draining).
var (
	// ErrSessionLimit rejects session creation past Config.MaxSessions.
	ErrSessionLimit = errors.New("serve: session limit reached")
	// ErrIterBacklog rejects Run calls that would exceed
	// Config.MaxQueuedIters outstanding iterations on one session.
	ErrIterBacklog = errors.New("serve: iteration backlog limit reached")
	// ErrClosed reports an operation on a closed session.
	ErrClosed = errors.New("serve: session closed")
	// ErrTimeout reports a WaitDone deadline expiry.
	ErrTimeout = errors.New("serve: wait timed out")
	// ErrDraining rejects session creation while Server.Drain is stopping
	// admission for a graceful shutdown.
	ErrDraining = errors.New("serve: server is draining")
)

// SessionOptions configures one session at creation.
type SessionOptions struct {
	// Program names a loaded program; the session pins its latest version.
	Program string
	// Source optionally names a source filter whose work is replaced by
	// the session's fed input queue: each firing pushes the filter's push
	// rate worth of items fed via Feed. Empty runs the program
	// self-contained (its own sources generate data).
	Source string
	// Tenant tags the session for per-tenant stats aggregation.
	Tenant string
	// Profile attaches a per-session obs profiler.
	Profile bool
	// Faults schedules deterministic fault injection inside this session's
	// engine (nil: none). Injection plans are test harnesses; they are not
	// persisted across Checkpoint/Restore.
	Faults *faults.Plan
	// OnError maps this session's filters to recovery policies (retry /
	// skip / restart with firing rollback). The zero value fails: the
	// first kernel error quarantines the session. Policies survive
	// Checkpoint/Restore.
	OnError faults.Policies
}

// Session is one tenant's independent instance of a compiled program:
// private tapes, filter state, and VM frames stamped from the program
// version's shared artifact bundle, plus bounded input/output queues. A
// session costs a few KB idle; the server multiplexes thousands onto the
// worker pool. All exported methods are safe for concurrent use.
type Session struct {
	// ID is the server-unique session identifier.
	ID  uint64
	srv *Server
	ver *version
	opt SessionOptions
	// policies is opt.OnError in its ParsePolicies spec form, rendered once
	// for every checkpoint envelope to carry.
	policies string

	// Input geometry when opt.Source is set: items consumed per source
	// firing, per steady iteration, and by the init schedule.
	inPerFiring int
	inPerIter   int
	inPerInit   int

	mu          sync.Mutex
	eng         engineRunner
	inited      bool
	input       wfunc.Ring // fed items awaiting consumption
	output      wfunc.Ring // produced items awaiting drain
	goal        int64      // steady iterations requested
	done        int64      // steady iterations completed
	scheduled   bool       // true while queued or running on the pool
	paused      int        // pause requests (checkpoint quiesce); >0 blocks dispatch
	closed      bool
	quarantined bool // terminal error counted in server quarantine stats
	err         error
	waitCh      chan struct{} // closed and remade on every state change

	// Worker-local staging. Only the worker running a batch touches these,
	// and the scheduled flag guarantees one worker at a time.
	stage    []float64 // inputs for the in-flight batch
	stagePos int
	sinkOut  [][]float64 // items each sink's tap captured during the batch, by version.sinks index
	sinkPos  []int       // emitLocked's read position in each sinkOut

	prof *obs.Profiler
}

// engineRunner is the slice of *exec.Engine a session drives. Narrowed to
// an interface only to keep session logic testable.
type engineRunner interface {
	RunInit() error
	RunSteady(iters int) error
	Iterations() int64
	Profile() *obs.Profiler
	AppendCheckpoint(dst []byte, iteration int64) []byte
	RestoreCheckpoint(data []byte) (int64, error)
}

// Run requests n more steady-state iterations. Admission control bounds the
// backlog: if the session would hold more than MaxQueuedIters undone
// iterations, the request is rejected whole with ErrIterBacklog.
func (s *Session) Run(n int) error {
	if n <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.err != nil {
		return s.err
	}
	if s.goal-s.done+int64(n) > int64(s.srv.cfg.MaxQueuedIters) {
		s.srv.rejectedIters.Add(int64(n))
		return fmt.Errorf("%w (%d queued, max %d)", ErrIterBacklog, s.goal-s.done, s.srv.cfg.MaxQueuedIters)
	}
	s.goal += int64(n)
	s.kickLocked()
	return nil
}

// Feed appends input items for the session's overridden source, returning
// how many were accepted; the rest are the caller's to retry once the
// session consumes some (bounded by Config.MaxBufferedIn).
func (s *Session) Feed(vals []float64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.opt.Source == "" {
		return 0, fmt.Errorf("serve: session %d has no fed source", s.ID)
	}
	room := s.srv.cfg.MaxBufferedIn - s.input.Len()
	n := min(room, len(vals))
	s.input.Append(vals[:n])
	if n > 0 {
		s.kickLocked()
	}
	return n, nil
}

// Drain removes and returns up to max buffered output items (max <= 0
// drains everything buffered). Freeing output room can unblock the
// session's backpressure, so Drain reschedules it.
func (s *Session) Drain(max int) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.output.Len()
	if max > 0 && max < n {
		n = max
	}
	if n == 0 {
		return nil
	}
	out := s.output.Take(nil, n)
	s.kickLocked()
	return out
}

// Buffered reports the current input and output queue depths.
func (s *Session) Buffered() (in, out int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.input.Len(), s.output.Len()
}

// Progress reports completed and requested steady iterations.
func (s *Session) Progress() (done, goal int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done, s.goal
}

// Err returns the session's terminal execution error, if any.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// failLocked records a terminal session error (the first one wins — a
// stuck verdict must not be overwritten by the batch eventually limping
// home) and counts the quarantine once. Callers hold s.mu.
func (s *Session) failLocked(err error) {
	if s.err == nil {
		s.err = err
	}
	if !s.quarantined {
		s.quarantined = true
		s.srv.noteQuarantine(s.opt.Tenant)
	}
	s.notifyLocked()
}

// Profile returns the session's profiler (nil unless Profile was set).
func (s *Session) Profile() *obs.Profiler { return s.prof }

// Close tears the session down: it stops scheduling, unpins its program
// version (letting a draining version retire), and frees its slot.
// Buffered output is discarded. Idempotent.
func (s *Session) Close() { s.srv.closeSession(s) }

// WaitDone blocks until the session has completed at least n steady
// iterations, failed, closed, or the timeout elapses.
func (s *Session) WaitDone(n int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		switch {
		case s.done >= n:
			s.mu.Unlock()
			return nil
		case s.err != nil:
			err := s.err
			s.mu.Unlock()
			return err
		case s.closed:
			s.mu.Unlock()
			return ErrClosed
		}
		ch := s.waitCh
		s.mu.Unlock()
		rem := time.Until(deadline)
		if rem <= 0 {
			return ErrTimeout
		}
		t := time.NewTimer(rem)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return ErrTimeout
		}
	}
}

// notifyLocked wakes every WaitDone waiter. Callers hold s.mu.
func (s *Session) notifyLocked() {
	close(s.waitCh)
	s.waitCh = make(chan struct{})
}

// kickLocked schedules the session onto the pool if it has dispatchable
// work and is not already queued or running. Callers hold s.mu.
func (s *Session) kickLocked() {
	if s.scheduled || s.closed || s.err != nil || s.paused > 0 {
		return
	}
	if s.dispatchableLocked() == 0 {
		return
	}
	s.scheduled = true
	s.srv.pool.submit(s)
}

// dispatchableLocked reports how many steady iterations could run right
// now, bounded by the requested goal, available fed input, and output
// buffer room (backpressure: a slow consumer throttles only this session).
// Callers hold s.mu.
func (s *Session) dispatchableLocked() int {
	pending := s.goal - s.done
	if pending <= 0 {
		return 0
	}
	k := int(pending)
	if s.opt.Source != "" {
		avail := s.input.Len()
		if !s.inited {
			avail -= s.inPerInit
		}
		if s.inPerIter > 0 {
			k = min(k, avail/s.inPerIter)
		} else if avail < 0 {
			k = 0
		}
	}
	if s.ver.outPerIter > 0 {
		room := s.srv.cfg.MaxBufferedOut - s.output.Len()
		if !s.inited {
			room -= s.ver.outPerInit
		}
		k = min(k, room/s.ver.outPerIter)
	}
	return max(k, 0)
}

// runBatch executes up to Config.Batch dispatchable iterations on the
// calling pool worker and reports whether the session is still runnable
// (in which case the worker requeues it). The scheduled flag is the
// exclusivity token: exactly one worker runs a session at a time, so the
// engine — single-owner by design — needs no lock of its own.
//
// Failure containment: engine errors (including kernel panics the engine
// already converts to *exec.ExecError) and any panic that escapes the
// engine or the staging bookkeeping quarantine this one session; the pool
// worker survives to serve every other tenant.
func (s *Session) runBatch() bool {
	k, runInit, ok := s.beginBatch()
	if !ok {
		return false
	}

	completed, elapsed, initDone, err := s.runEngine(runInit, k)

	// Before s.done moves: a waiter this batch wakes must never find the
	// server-wide counters behind its own session's progress.
	if completed > 0 {
		s.srv.recordIters(s.opt.Tenant, completed, int64(elapsed)/int64(completed))
	}

	s.mu.Lock()
	if initDone {
		s.inited = true
	}
	if err != nil {
		s.failLocked(err)
	}
	if !s.closed {
		s.emitLocked(initDone, completed)
	}
	for i := range s.sinkOut {
		s.sinkOut[i] = s.sinkOut[i][:0]
	}
	s.done += int64(completed)
	runnable := s.err == nil && !s.closed && s.paused == 0 && s.dispatchableLocked() > 0
	if !runnable {
		s.scheduled = false
	}
	s.notifyLocked()
	s.mu.Unlock()
	return runnable
}

// emitLocked appends the batch's tapped items to the output buffer in the
// order one iteration at a time produces them: init's sink firings when
// init ran in this batch, then each completed iteration's, in schedule
// order. A block fires each sink's share of all its iterations at once,
// so this merge is what keeps the stream of a program with several sinks
// independent of the batch size. Items past the completed iterations (a
// sink scheduled before a faulting filter has fired the whole block) are
// dropped: done and the drainable output cover the same iterations.
// Callers hold s.mu.
func (s *Session) emitLocked(initDone bool, completed int) {
	pos := s.sinkPos
	clear(pos)
	run, from := -1, 0 // the pending span: sinkOut[run][from:pos[run]]
	take := func(sh outShare) {
		if sh.sink != run {
			if run >= 0 {
				s.output.Append(s.sinkOut[run][from:pos[run]])
			}
			run, from = sh.sink, pos[sh.sink]
		}
		pos[run] = min(pos[run]+sh.items, len(s.sinkOut[run]))
	}
	if initDone {
		for _, sh := range s.ver.initOrder {
			take(sh)
		}
	}
	for range completed {
		for _, sh := range s.ver.iterOrder {
			take(sh)
		}
	}
	if run >= 0 {
		s.output.Append(s.sinkOut[run][from:pos[run]])
	}
}

// beginBatch claims up to Config.Batch dispatchable iterations and stages
// their fed input under the session lock. ok=false means there is nothing
// to run and the scheduled flag has been released. A panic out of the
// staging bookkeeping (a session-accounting bug) is contained here: it
// quarantines the session instead of killing the pool worker while the
// lock is held.
func (s *Session) beginBatch() (k int, runInit bool, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.err != nil || s.paused > 0 {
		s.scheduled = false
		s.notifyLocked() // waitUnscheduled blocks on this transition
		return 0, false, false
	}
	k = min(s.dispatchableLocked(), s.srv.cfg.Batch)
	if k == 0 {
		s.scheduled = false
		s.notifyLocked()
		return 0, false, false
	}
	runInit = !s.inited
	var stageErr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				stageErr = containedPanic(r)
			}
		}()
		if s.opt.Source != "" {
			want := k * s.inPerIter
			if runInit {
				want += s.inPerInit
			}
			s.stage = s.input.Take(s.stage, want)
			s.stagePos = 0
		}
	}()
	if stageErr != nil {
		s.failLocked(stageErr) // notifies: waitUnscheduled waiters see the transition
		s.scheduled = false
		return 0, false, false
	}
	return k, runInit, true
}

// runEngine drives the engine for one claimed batch without holding the
// session lock: one RunSteady call for all k iterations, which the engine
// fires as blocks, timed once. completed is what the engine reports every
// node has finished (exec.Engine.Iterations), so after a fault it counts
// the iterations before the faulting one, and emitLocked keeps only their
// output. Any panic that escapes the engine is recovered into a structured
// error (last-resort containment — the engine already converts kernel
// panics into *exec.ExecError, so anything caught here is a bug in a
// native work function's surroundings or the tap/override plumbing).
func (s *Session) runEngine(runInit bool, k int) (completed int, elapsed time.Duration, initDone bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = containedPanic(r)
		}
	}()
	if runInit {
		if err = s.eng.RunInit(); err != nil {
			return
		}
		initDone = true
	}
	before := s.eng.Iterations()
	t0 := time.Now()
	err = s.eng.RunSteady(k)
	elapsed = time.Since(t0)
	return int(s.eng.Iterations() - before), elapsed, initDone, err
}

// containedPanic converts a recovered panic value into the structured
// error the session surfaces via Err, stats, and the HTTP API.
func containedPanic(r any) error {
	switch v := r.(type) {
	case *exec.ExecError:
		return v
	case error:
		return &exec.ExecError{Op: "contained panic", Err: v}
	default:
		return &exec.ExecError{Op: "contained panic", Err: fmt.Errorf("%v", v)}
	}
}

// pause blocks future dispatch of the session (counted, so concurrent
// pausers compose); resume re-enables it and reschedules pending work.
func (s *Session) pause() {
	s.mu.Lock()
	s.paused++
	s.mu.Unlock()
}

func (s *Session) resume() {
	s.mu.Lock()
	s.paused--
	s.kickLocked()
	s.mu.Unlock()
}

// waitUnscheduled blocks until no pool worker holds the session (the
// quiesce point a paused session converges to) or the timeout elapses.
func (s *Session) waitUnscheduled(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		if !s.scheduled {
			s.mu.Unlock()
			return nil
		}
		ch := s.waitCh
		s.mu.Unlock()
		rem := time.Until(deadline)
		if rem <= 0 {
			return ErrTimeout
		}
		t := time.NewTimer(rem)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return ErrTimeout
		}
	}
}

// sourceOverride returns the work-function replacement for the session's
// fed source: each firing pushes inPerFiring staged items. The batch
// staging in runBatch guarantees the stage holds exactly enough.
func (s *Session) sourceOverride() func(in, out wfunc.Tape) {
	return func(_, out wfunc.Tape) {
		for i := 0; i < s.inPerFiring; i++ {
			out.Push(s.stage[s.stagePos])
			s.stagePos++
		}
	}
}
