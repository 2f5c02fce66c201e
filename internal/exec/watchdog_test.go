package exec

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"streamit/internal/faults"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/wfunc"
)

// expectStall asserts that the trace recorded the injector delivering a
// stall to the named filter, so the tests below assert on an observed
// event instead of guessing with sleeps — the watchdog interval then only
// bounds the run's duration, it is not load-bearing for the assertion.
func expectStall(t *testing.T, rec *obs.Recorder, filter string) {
	t.Helper()
	for _, ev := range rec.Events() {
		if ev.Cat != "fault" {
			continue
		}
		if ev.Name != "fault: stall" {
			t.Fatalf("observed %q, want fault: stall", ev.Name)
		}
		if faults.BaseName(ev.Detail) != filter {
			t.Fatalf("stall delivered to %q, want %s", ev.Detail, filter)
		}
		return
	}
	t.Fatalf("no fault event observed: the stall was never injected")
}

// TestParallelStallWatchdog: an injected stall wedges one goroutine; the
// watchdog detects frozen progress and reports the blocked filters. The
// recorded fault event proves the stall was actually delivered, so a
// *DeadlockError here can only mean the watchdog saw the wedge.
func TestParallelStallWatchdog(t *testing.T) {
	g, s, _ := faultPipeline(t, gainFilter("Double", 2))
	rec := obs.NewRecorder()
	pe, err := NewParallelOpts(g, s, Options{
		Faults:   mustPlan(t, "stall:Double@5"),
		Watchdog: 150 * time.Millisecond,
		Trace:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = pe.Run(64)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	expectStall(t, rec, "Double")
	if de.Engine != "mapped" {
		t.Fatalf("engine = %q, want mapped", de.Engine)
	}
	stalled := false
	for _, fs := range de.Blocked {
		if faults.BaseName(fs.Name) == "Double" && fs.State == stStalled {
			stalled = true
		}
	}
	if !stalled {
		t.Fatalf("report %v does not show Double stalled", err)
	}
	if !strings.Contains(err.Error(), "Double") {
		t.Fatalf("error %q does not name the stalled filter", err)
	}
}

// TestDynamicStallWatchdog: the dynamic engine runs on one thread with no
// watchdog, so an injected stall under the fail policy is reported
// synchronously, as on the sequential engine.
func TestDynamicStallWatchdog(t *testing.T) {
	g, _, _ := faultPipeline(t, gainFilter("Double", 2))
	rec := obs.NewRecorder()
	d, err := NewFromGraphOpts(g, nil, Options{
		Faults: mustPlan(t, "stall:Double@5"),
		Trace:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.RunItems(64)
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want *ExecError", err)
	}
	expectStall(t, rec, "Double")
	if faults.BaseName(ee.Filter) != "Double" || ee.Op != "injected stall" || ee.Iteration != 5 {
		t.Fatalf("err = %+v, want Double's injected stall at firing 5", ee)
	}
}

// TestDynamicBufferDeadlockCycle: a rate-mismatched graph (duplicate split
// feeding a weighted joiner) wedges once the bounded rings fill — the
// classic dynamic-rate deadlock. The pass that cannot move reports it at
// once, tracing the wait-cycle through the blocked nodes.
func TestDynamicBufferDeadlockCycle(t *testing.T) {
	snk, _ := SliceSink("snk")
	sj := ir.SJ("sj", ir.Duplicate(), ir.RoundRobin(8, 1),
		gainFilter("a", 1), gainFilter("b", 1))
	prog := &ir.Program{Name: "dl", Top: ir.Pipe("main", rampFilter("Src"), sj, snk)}
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewFromGraphOpts(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.ahead = 4
	_, err = d.RunItems(1000)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if len(de.Blocked) == 0 {
		t.Fatal("deadlock report lists no blocked nodes")
	}
	if len(de.Cycle) < 2 {
		t.Fatalf("expected a traced wait-cycle, got %v", de.Cycle)
	}
	if msg := err.Error(); !strings.Contains(msg, "wait-cycle") || strings.Contains(msg, "watchdog") {
		t.Fatalf("error %q should include the wait-cycle and no watchdog verdict", msg)
	}
}

// TestWatchdogDisabled: a negative interval turns detection off; the run
// aborts via the normal error path instead (other node finishing is not
// possible here, so use a panic fault to end the run).
func TestWatchdogDisabled(t *testing.T) {
	g, s, _ := faultPipeline(t, gainFilter("Double", 2))
	pe, err := NewParallelOpts(g, s, Options{
		Faults:   mustPlan(t, "panic:Double@3"),
		Watchdog: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = pe.Run(16)
	var de *DeadlockError
	if errors.As(err, &de) {
		t.Fatalf("watchdog fired despite being disabled: %v", err)
	}
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want the filter's *ExecError", err)
	}
}

// TestWaitCycleTrace: unit test of the cycle tracer.
func TestWaitCycleTrace(t *testing.T) {
	g := &ir.Graph{}
	for _, name := range []string{"", "A", "B", "C", "D"} {
		g.Nodes = append(g.Nodes, &ir.Node{ID: len(g.Nodes), Name: name})
	}
	// A -> B -> C -> B is a cycle (B C B); D -> A joins the chain.
	cycle := traceWaitCycle(map[int]int{1: 2, 2: 3, 3: 2, 4: 1}, g)
	if len(cycle) != 3 || cycle[0] != "B" || cycle[1] != "C" || cycle[2] != "B" {
		t.Fatalf("cycle = %v, want [B C B]", cycle)
	}
	// No cycle: the longest chain is reported.
	chain := traceWaitCycle(map[int]int{1: 2, 2: 3}, g)
	if len(chain) < 2 || chain[0] != "A" {
		t.Fatalf("chain = %v, want the A -> B -> C chain", chain)
	}
}

// TestMappedWedgedKernelIsWrittenOff: a native kernel that never returns
// from its third firing wedges its worker where no abort reaches it. The
// watchdog's verdict still ends the run, and the engine writes the worker
// off as the serve pool writes off a lost one: every later Run, Prepare,
// RestoreCheckpoint and StepEpoch refuses, naming the worker.
func TestMappedWedgedKernelIsWrittenOff(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // the wedged goroutine exits once the kernel returns
	fired := 0
	wedge := gainFilter("wedge", 1)
	wedge.WorkFn = func(in, out wfunc.Tape, _ *wfunc.State) {
		if fired++; fired == 3 {
			<-release
		}
		out.Push(in.Pop())
	}
	g, s, _ := faultPipelineFrom(t, SliceSource("src", make([]float64, 200)), wedge)
	me, err := NewMappedOpts(g, s, []int{0, 0, 1}, 2, Options{Watchdog: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- me.Run(100) }()
	select {
	case err = <-done:
	case <-time.After(time.Second):
		t.Fatal("Run has not returned 1 s after the kernel wedged")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want a *DeadlockError", err)
	}
	const lost = "worker 0"
	for what, err := range map[string]error{"Run": me.Run(1), "Prepare": me.Prepare(), "StepEpoch": me.StepEpoch(1)} {
		if err == nil || !strings.Contains(err.Error(), lost) {
			t.Errorf("%s after the write-off: %v, want an error naming %s", what, err, lost)
		}
	}
	if _, err := me.RestoreCheckpoint(nil); err == nil || !strings.Contains(err.Error(), lost) {
		t.Errorf("RestoreCheckpoint after the write-off: %v, want an error naming %s", err, lost)
	}
}

// TestMappedDriveRunsOnlyItsWorkers: a drive starts one goroutine per
// worker that has nodes and none beside them, since the epoch driver judges
// stalls in its own wait. A native kernel counts the goroutines in its
// third firing; once Run returns, the count is back at its baseline.
func TestMappedDriveRunsOnlyItsWorkers(t *testing.T) {
	// A written-off worker of an earlier test exits only once its kernel
	// returns: let it go before taking the baseline.
	for deadline := time.Now().Add(time.Second); strings.Contains(allStacks(), "(*MappedEngine).startCrew"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("a worker of an earlier drive still runs:\n%s", allStacks())
		}
	}
	base, during, fired := 0, 0, 0
	count := gainFilter("count", 1)
	count.WorkFn = func(in, out wfunc.Tape, _ *wfunc.State) {
		if fired++; fired == 3 {
			during = runtime.NumGoroutine() - base
		}
		out.Push(in.Pop())
	}
	g, s, _ := faultPipelineFrom(t, SliceSource("src", make([]float64, 200)), count)
	me, err := NewMappedOpts(g, s, []int{0, 0, 1}, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base = runtime.NumGoroutine()
	if err := me.Run(100); err != nil {
		t.Fatal(err)
	}
	if during != 2 {
		t.Errorf("the drive ran %d goroutines beside the caller's, want its 2 workers", during)
	}
	// A worker is joined at its deferred Done, just before its goroutine ends.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() != base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 1 s after Run returned, want the %d from before it", runtime.NumGoroutine(), base)
		}
	}
}

// TestMappedWatchdogWaitsItsInterval: the verdict comes no sooner than the
// interval after progress stopped, even after many epochs. At one epoch per
// block the ticker ticks between epochs too; the window opens when an epoch
// releases its workers, so a tick kept from between epochs cannot shorten
// it. One node per worker, and the stall takes Src's: from the release on
// nothing moves and no node reports running, so the verdict is due at the
// interval itself, timed from the epoch's start.
func TestMappedWatchdogWaitsItsInterval(t *testing.T) {
	const interval = 100 * time.Millisecond
	g, s, _ := faultPipeline(t, gainFilter("Double", 2))
	rec := obs.NewRecorder()
	me, err := NewMappedOpts(g, s, []int{0, 1, 2}, 3, Options{
		Faults:          mustPlan(t, "stall:worker0@400"), // a block start: 50 epochs of 8 iterations in
		Watchdog:        interval,
		CheckpointEvery: 1,
		Trace:           rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = me.Run(1000)
	end := rec.Stamp()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want a *DeadlockError", err)
	}
	for _, ev := range rec.Events() {
		if ev.Name != "fault: stall" {
			continue
		}
		if waited := end - time.Duration(ev.TS*float64(time.Microsecond)); waited < interval {
			t.Fatalf("verdict %v after the stall, want at least the %v interval", waited, interval)
		}
		return
	}
	t.Fatal("no fault: stall instant in the trace")
}

// allStacks is the stack of every goroutine.
func allStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}
