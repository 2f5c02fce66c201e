package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestPoolManySessions drives enough concurrent sessions through a small
// pool that queueing, rotation and parking all exercise, and checks every
// session completes its goal.
func TestPoolManySessions(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 4, MaxSessions: 1024})
	loadTest(t, srv, "t", 1.5)

	const sessions = 200
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		s, err := srv.NewSession(SessionOptions{Program: "t"})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			// Request in two chunks so sessions re-enter the pool mid-run,
			// and drain as we go so output backpressure never caps progress.
			if err := s.Run(iters / 2); err != nil {
				errs <- err
				return
			}
			for {
				done, _ := s.Progress()
				s.Drain(0)
				if done >= iters/2 {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if err := s.Run(iters / 2); err != nil {
				errs <- err
				return
			}
			if err := s.WaitDone(iters, 20*time.Second); err != nil {
				errs <- err
			}
			s.Drain(0)
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("session error: %v", err)
	}
	st := srv.Stats()
	if st.Iterations.Completed != sessions*iters {
		t.Fatalf("completed %d iterations, want %d", st.Iterations.Completed, sessions*iters)
	}
	if st.Pool.Parks == 0 {
		t.Error("pool never parked an idle worker")
	}
}

// TestPoolNoLostWakeup hammers the submit/park race: one session at a
// time, long idle gaps, many rounds. A lost wakeup shows up as a WaitDone
// timeout.
func TestPoolNoLostWakeup(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2})
	loadTest(t, srv, "t", 1.0)
	s, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	for round := 1; round <= 300; round++ {
		if err := s.Run(1); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := s.WaitDone(int64(round), 10*time.Second); err != nil {
			t.Fatalf("round %d: %v (lost wakeup?)", round, err)
		}
		s.Drain(0)
	}
}

// shareSessions opens n sessions on a server of the given worker count, asks
// each for goal iterations, and returns their progress at the moment the
// first of them is half done.
func shareSessions(t *testing.T, workers, n int, goal int64) []int64 {
	t.Helper()
	srv := newTestServer(t, Config{Workers: workers, MaxQueuedIters: int(goal), MaxBufferedOut: int(goal)})
	loadTest(t, srv, "t", 1.5)
	ss := make([]*Session, n)
	for i := range ss {
		s, err := srv.NewSession(SessionOptions{Program: "t"})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		ss[i] = s
	}
	for i, s := range ss {
		if err := s.Run(int(goal)); err != nil {
			t.Fatalf("session %d: Run: %v", i, err)
		}
	}
	done := make([]int64, n)
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		half := false
		for i, s := range ss {
			done[i], _ = s.Progress()
			half = half || done[i] >= goal/2
		}
		if half {
			return done
		}
		if time.Now().After(deadline) {
			t.Fatalf("no session half done after 60s: %v", done)
		}
	}
}

// TestPoolSharesAWorker pins the fairness guarantee: runnable sessions
// beyond the worker count take turns batch by batch instead of waiting for
// a neighbour to finish. With one worker and two long requests, neither is
// far behind when the other is half done.
func TestPoolSharesAWorker(t *testing.T) {
	for _, tc := range []struct{ workers, sessions int }{{1, 2}, {2, 3}} {
		t.Run(fmt.Sprintf("%dworkers%dsessions", tc.workers, tc.sessions), func(t *testing.T) {
			const goal = 200000
			done := shareSessions(t, tc.workers, tc.sessions, goal)
			for i, d := range done {
				if d < goal/8 {
					t.Errorf("session %d starved: progress %v of %d when the first was half done", i, done, goal)
				}
			}
		})
	}
}

// TestPoolCloseWithRunnableSession checks that a session with work left for
// ever cannot hold Close: the worker rotating it sees the pool closed.
func TestPoolCloseWithRunnableSession(t *testing.T) {
	const goal = 1 << 30
	srv := New(Config{Workers: 1, MaxQueuedIters: goal, MaxBufferedOut: goal})
	loadTest(t, srv, "t", 1.0)
	s, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := s.Run(goal); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.WaitDone(1, 10*time.Second); err != nil {
		t.Fatalf("session never started: %v", err)
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close did not return within 1s while a session stayed runnable")
	}
}

// TestRotateDoesNotWakeIdleWorker counts parks over sequential two-batch
// requests on a two-worker pool. The worker that runs a request keeps the
// session for its second batch and parks once when it is done; the other
// worker has nothing to do and must stay parked, so N requests cost N parks
// on top of the initial one per worker — not 2N.
func TestRotateDoesNotWakeIdleWorker(t *testing.T) {
	const workers, batch, requests = 2, 4, 200
	srv := newTestServer(t, Config{Workers: workers, Batch: batch})
	loadTest(t, srv, "t", 1.0)
	s, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	// Each request starts from a quiescent pool, so a park counted below is
	// one the request caused, not a worker still on its way to the queue.
	quiesce := func(parks int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); srv.Stats().Pool.Parks < parks; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("pool never quiesced: %d parks, want %d", srv.Stats().Pool.Parks, parks)
			}
		}
	}
	for i := 0; i < requests; i++ {
		quiesce(int64(workers + i))
		if err := s.Run(2 * batch); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if err := s.WaitDone(int64((i+1)*2*batch), 10*time.Second); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		s.Drain(0)
	}
	quiesce(workers + requests)
	if got := srv.Stats().Pool.Parks; got > workers+requests {
		t.Fatalf("%d parks after %d two-batch requests on %d workers, want at most %d: a requeue woke the idle worker",
			got, requests, workers, workers+requests)
	}
}
