package serve

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"streamit/internal/apps"
	"streamit/internal/core"
	"streamit/internal/exec"
	"streamit/internal/faults"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/wfunc"
)

// supervisedStandalone runs the program sequentially under the same
// supervision options a session would get and returns the sink's values —
// the bit-identical reference for a recovered session.
func supervisedStandalone(t *testing.T, p *ir.Program, iters int, opts exec.Options) []float64 {
	t.Helper()
	c, err := core.Compile(p, core.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sh, err := c.Shared(exec.BackendVM)
	if err != nil {
		t.Fatalf("Shared: %v", err)
	}
	eng, err := sh.NewEngine(opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var sinkName string
	for _, n := range c.Graph.Nodes {
		if n.Kind == ir.NodeFilter && n.IsSink() {
			sinkName = n.Name
		}
	}
	var got []float64
	if err := eng.TapSink(sinkName, func(v float64) { got = append(got, v) }); err != nil {
		t.Fatalf("TapSink: %v", err)
	}
	if err := eng.Run(iters); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return got
}

// TestSessionRecoveryPolicies: a session whose kernel panics mid-run under
// a skip/retry/restart policy recovers (firing rollback inside the shared
// engine) and its output is bit-identical to a supervised standalone run
// of the same program, faults, and policy.
func TestSessionRecoveryPolicies(t *testing.T) {
	for _, policy := range []string{"skip", "retry:2", "restart"} {
		t.Run(policy, func(t *testing.T) {
			srv := newTestServer(t, Config{Workers: 2})
			loadTest(t, srv, "t", 2.0)
			plan, err := faults.ParsePlan("panic:g@5")
			if err != nil {
				t.Fatalf("ParsePlan: %v", err)
			}
			ps, err := faults.ParsePolicies("g=" + policy)
			if err != nil {
				t.Fatalf("ParsePolicies: %v", err)
			}
			s, err := srv.NewSession(SessionOptions{Program: "t", Faults: plan, OnError: ps})
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			const iters = 20
			if err := s.Run(iters); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := s.WaitDone(iters, 5*time.Second); err != nil {
				t.Fatalf("WaitDone: %v", err)
			}
			got := s.Drain(0)

			refPlan, _ := faults.ParsePlan("panic:g@5")
			want := supervisedStandalone(t, testProgram(2.0), iters,
				exec.Options{Faults: refPlan, OnError: ps})
			if len(got) != len(want) {
				t.Fatalf("drained %d items, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("item %d: got %v, want %v (not bit-identical)", i, got[i], want[i])
				}
			}
		})
	}
}

// TestSessionsShareStateUnderRetry: two sessions of one program hold the
// same weights of a FIR no firing writes, and both retry it at once on two
// workers. A rollback leaves that shared state alone (run under -race),
// and each session's output is bit-identical to a supervised standalone
// run.
func TestSessionsShareStateUnderRetry(t *testing.T) {
	prog := func() *ir.Program {
		return &ir.Program{Name: "F", Top: ir.Pipe("FP", apps.Source("src"), apps.FIR("f", 16, 0.25), apps.Sink("out", 1))}
	}
	srv := newTestServer(t, Config{Workers: 2, Batch: 4})
	if _, err := srv.LoadProgram("f", prog()); err != nil {
		t.Fatal(err)
	}
	const spec, iters = "panic:f@3,panic:f@40,panic:f@41,panic:f@90", 120
	ps, err := faults.ParsePolicies("f=retry:2")
	if err != nil {
		t.Fatal(err)
	}
	var sessions []*Session
	for i := 0; i < 2; i++ {
		plan, err := faults.ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := srv.NewSession(SessionOptions{Program: "f", Faults: plan, OnError: ps})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	for _, s := range sessions {
		if err := s.Run(iters); err != nil {
			t.Fatal(err)
		}
	}
	refPlan, _ := faults.ParsePlan(spec)
	want := supervisedStandalone(t, prog(), iters, exec.Options{Faults: refPlan, OnError: ps})
	for i, s := range sessions {
		if err := s.WaitDone(iters, 5*time.Second); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		got := s.Drain(0)
		if len(got) != len(want) {
			t.Fatalf("session %d drained %d items, want %d", i, len(got), len(want))
		}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("session %d item %d: %v, want %v", i, k, got[k], want[k])
			}
		}
	}
}

// TestSessionPanicQuarantinesOnlySession is the acceptance check for
// supervision: an injected kernel panic quarantines exactly the faulty
// session — every other tenant's session completes unaffected with
// bit-identical output — and the quarantine is attributed in stats.
func TestSessionPanicQuarantinesOnlySession(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 4})
	loadTest(t, srv, "t", 2.0)
	const healthy = 30
	const iters = 16

	plan, err := faults.ParsePlan("panic:g@5")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	bad, err := srv.NewSession(SessionOptions{Program: "t", Tenant: "bad-tenant", Faults: plan})
	if err != nil {
		t.Fatalf("NewSession(bad): %v", err)
	}
	var good []*Session
	for i := 0; i < healthy; i++ {
		s, err := srv.NewSession(SessionOptions{Program: "t", Tenant: fmt.Sprintf("tenant-%d", i%5)})
		if err != nil {
			t.Fatalf("NewSession(%d): %v", i, err)
		}
		good = append(good, s)
	}
	if err := bad.Run(iters); err != nil {
		t.Fatalf("Run(bad): %v", err)
	}
	for _, s := range good {
		if err := s.Run(iters); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}

	err = bad.WaitDone(iters, 5*time.Second)
	var ee *exec.ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("bad session: err = %v, want *exec.ExecError", err)
	}
	if !strings.Contains(ee.Filter, "g") {
		t.Fatalf("ExecError names filter %q, want the faulty gain", ee.Filter)
	}
	if !quarantined(bad) {
		t.Fatal("faulty session not marked quarantined")
	}

	want := standaloneRun(t, testProgram(2.0), iters, nil)
	for i, s := range good {
		if err := s.WaitDone(iters, 5*time.Second); err != nil {
			t.Fatalf("healthy session %d: %v", i, err)
		}
		got := s.Drain(0)
		if len(got) != len(want) {
			t.Fatalf("healthy session %d drained %d items, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("healthy session %d item %d: got %v, want %v", i, j, got[j], want[j])
			}
		}
	}

	st := srv.Stats()
	if st.Sessions.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Sessions.Quarantined)
	}
	if q := st.Tenants["bad-tenant"].Quarantined; q != 1 {
		t.Fatalf("tenant quarantines = %d, want 1", q)
	}
	// The dead session's backlog must not pollute queue depth.
	if st.Iterations.Queued != 0 {
		t.Fatalf("Queued = %d, want 0 (quarantined backlog excluded)", st.Iterations.Queued)
	}
}

// panicEngine is a fake engineRunner whose steady-state run panics with a
// raw value (not an ExecError) once a call asks for more than after
// iterations in all: the case where a bug escapes the engine's own
// recovery and only the runBatch containment stands between one bad
// session and the whole process.
type panicEngine struct{ after, done int }

func (p *panicEngine) RunInit() error { return nil }
func (p *panicEngine) RunSteady(iters int) error {
	if p.after < iters {
		panic("engine bug: escaped the kernel recovery")
	}
	p.after -= iters
	p.done += iters
	return nil
}
func (p *panicEngine) Iterations() int64                           { return int64(p.done) }
func (p *panicEngine) Profile() *obs.Profiler                      { return nil }
func (p *panicEngine) AppendCheckpoint(dst []byte, _ int64) []byte { return dst }
func (p *panicEngine) RestoreCheckpoint([]byte) (int64, error) {
	return 0, fmt.Errorf("fake engine")
}

// TestRunBatchPanicContainment: a panic that escapes the engine entirely
// is contained at the pool-worker boundary — the session quarantines with
// a structured error and the same worker keeps serving other sessions.
func TestRunBatchPanicContainment(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1}) // one worker: it must survive
	loadTest(t, srv, "t", 2.0)

	victim, err := srv.NewSession(SessionOptions{Program: "t", Tenant: "victim"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	victim.mu.Lock()
	victim.eng = &panicEngine{after: 3}
	victim.mu.Unlock()

	if err := victim.Run(16); err != nil {
		t.Fatalf("Run: %v", err)
	}
	err = victim.WaitDone(16, 5*time.Second)
	var ee *exec.ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want *exec.ExecError", err)
	}
	if ee.Op != "contained panic" {
		t.Fatalf("ExecError.Op = %q, want %q", ee.Op, "contained panic")
	}
	if !quarantined(victim) {
		t.Fatal("session not quarantined after contained panic")
	}

	// The single pool worker must still be alive to serve this session.
	s, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("NewSession after panic: %v", err)
	}
	if err := s.Run(8); err != nil {
		t.Fatalf("Run after panic: %v", err)
	}
	if err := s.WaitDone(8, 5*time.Second); err != nil {
		t.Fatalf("worker did not survive the contained panic: %v", err)
	}
}

// TestStagingPanicContainment: a staging-accounting bug (popping an empty
// input ring while holding the session lock) quarantines the session
// without poisoning the lock or the worker.
func TestStagingPanicContainment(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	loadTest(t, srv, "t", 2.0)
	s, err := srv.NewSession(SessionOptions{Program: "t", Source: "src"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	// Corrupt the invariant staging relies on: make the input ring lie
	// about its depth. dispatchableLocked sees 4 items, the ring has no
	// storage behind them, and staging panics inside beginBatch while s.mu
	// is held.
	s.mu.Lock()
	s.input.Pushed += 4
	s.mu.Unlock()
	if err := s.Run(2); err != nil {
		t.Fatalf("Run: %v", err)
	}
	err = s.WaitDone(2, 5*time.Second)
	var ee *exec.ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want contained *exec.ExecError", err)
	}
	// Session lock must still be healthy (a panic with s.mu held would
	// deadlock here) and the worker alive.
	if !quarantined(s) {
		t.Fatal("session not quarantined")
	}
	probe, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := probe.Run(4); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := probe.WaitDone(4, 5*time.Second); err != nil {
		t.Fatalf("worker did not survive staging panic: %v", err)
	}
}

// blockingProgram returns src -> block -> sink where block's native work
// function parks on the returned channel: close it to unwedge. The
// genuinely-stuck batch the watchdog exists for.
func blockingProgram(release chan struct{}) *ir.Program {
	b := wfunc.NewKernel("block", 1, 1, 1)
	b.WorkBody(wfunc.Push1(wfunc.PopE()))
	blk := &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat,
		WorkFn: func(in, out wfunc.Tape, st *wfunc.State) {
			<-release
			out.Push(in.Pop())
		}}
	return &ir.Program{Name: "B", Top: ir.Pipe("BP",
		apps.Source("src"), blk, apps.Sink("out", 1))}
}

// TestStuckSessionWatchdog: a kernel that never returns wedges one pool
// worker; the watchdog declares the session stuck with a worker-attributed
// StuckError, spawns a replacement worker, and the remaining sessions keep
// serving to completion.
func TestStuckSessionWatchdog(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // unwedge the kernel so its goroutine exits

	srv := newTestServer(t, Config{Workers: 2, BatchTimeout: 50 * time.Millisecond})
	if _, err := srv.LoadProgram("blocky", blockingProgram(release)); err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	loadTest(t, srv, "t", 2.0)

	stuck, err := srv.NewSession(SessionOptions{Program: "blocky", Tenant: "wedged"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := stuck.Run(4); err != nil {
		t.Fatalf("Run: %v", err)
	}

	err = stuck.WaitDone(4, 5*time.Second)
	var se *StuckError
	if !errors.As(err, &se) {
		t.Fatalf("stuck session: err = %v, want *StuckError", err)
	}
	if se.SessionID != stuck.ID || se.Tenant != "wedged" || se.Program != "blocky" {
		t.Fatalf("StuckError attribution = %+v", se)
	}
	if se.Elapsed < 50*time.Millisecond {
		t.Fatalf("StuckError.Elapsed = %v, want >= BatchTimeout", se.Elapsed)
	}
	if !quarantined(stuck) {
		t.Fatal("stuck session not quarantined")
	}

	// The pool must be back at full strength: healthy sessions complete.
	want := standaloneRun(t, testProgram(2.0), 12, nil)
	for i := 0; i < 4; i++ {
		s, err := srv.NewSession(SessionOptions{Program: "t"})
		if err != nil {
			t.Fatalf("NewSession(%d): %v", i, err)
		}
		if err := s.Run(12); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := s.WaitDone(12, 5*time.Second); err != nil {
			t.Fatalf("healthy session %d after stuck verdict: %v", i, err)
		}
		got := s.Drain(0)
		if len(got) != len(want) {
			t.Fatalf("healthy session %d: %d items, want %d", i, len(got), len(want))
		}
		s.Close()
	}

	st := srv.Stats()
	if st.Sessions.Stuck != 1 {
		t.Fatalf("Stats.Sessions.Stuck = %d, want 1", st.Sessions.Stuck)
	}
	if st.Pool.Lost != 1 || st.Pool.Replaced != 1 {
		t.Fatalf("Pool lost/replaced = %d/%d, want 1/1", st.Pool.Lost, st.Pool.Replaced)
	}
	if st.Pool.Workers != 2 {
		t.Fatalf("live workers = %d, want 2 (replacement keeps strength)", st.Pool.Workers)
	}
	if q := st.Tenants["wedged"].Quarantined; q != 1 {
		t.Fatalf("wedged tenant quarantines = %d, want 1", q)
	}
}

// TestLostSessionAccounting: a session that errors mid-batch while other
// work is queued is dropped by its worker without losing accounting — the
// quarantine is counted, its backlog leaves the queue-depth gauge, its
// pre-error output stays drainable, and the session stays inspectable.
func TestLostSessionAccounting(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2, Batch: 4})
	loadTest(t, srv, "t", 2.0)
	plan, err := faults.ParsePlan("panic:g@9")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	s, err := srv.NewSession(SessionOptions{Program: "t", Tenant: "lossy", Faults: plan})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	const goal = 64 // far beyond the failure point: a real backlog is lost
	if err := s.Run(goal); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.WaitDone(goal, 5*time.Second); err == nil {
		t.Fatal("WaitDone succeeded past an injected panic")
	}
	done, g := s.Progress()
	if g != goal || done >= goal || done < 1 {
		t.Fatalf("progress %d/%d after mid-batch error", done, g)
	}
	// Iterations completed before the failing firing produced output; it
	// must still be drainable after quarantine.
	if got := s.Drain(0); int64(len(got)) != done {
		t.Fatalf("drained %d items, want %d (one per completed iteration)", len(got), done)
	}
	st := srv.Stats()
	if st.Sessions.Quarantined != 1 || st.Tenants["lossy"].Quarantined != 1 {
		t.Fatalf("quarantine accounting: %+v", st.Sessions)
	}
	if st.Iterations.Queued != 0 {
		t.Fatalf("Queued = %d, want 0: the lost backlog must leave the gauge", st.Iterations.Queued)
	}
	if st.Iterations.Completed != done {
		t.Fatalf("Completed = %d, want %d", st.Iterations.Completed, done)
	}
	// The session slot frees normally.
	s.Close()
	if srv.Session(s.ID) != nil {
		t.Fatal("quarantined session still resolvable after Close")
	}
}

// quarantined reports whether the session hit a terminal error and was
// isolated from the pool.
func quarantined(s *Session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}
