package exec

import (
	"errors"
	"strings"
	"testing"

	"streamit/internal/faults"
	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

func mustPlan(t *testing.T, s string) *faults.Plan {
	t.Helper()
	p, err := faults.ParsePlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustPolicies(t *testing.T, s string) faults.Policies {
	t.Helper()
	p, err := faults.ParsePolicies(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// accFilter pushes running sums: out = s += in (stateful, so Restart is
// observable).
func accFilter(name string) *ir.Filter {
	b := wfunc.NewKernel(name, 1, 1, 1)
	s := b.Field("s", 0)
	b.WorkBody(wfunc.SetF(s, wfunc.AddX(s, wfunc.PopE())), wfunc.Push1(s))
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}
}

// faultPipeline builds ramp -> mid -> sink and returns graph, schedule and
// the captured output slice.
func faultPipeline(t *testing.T, mid *ir.Filter) (*ir.Graph, *sched.Schedule, *[]float64) {
	t.Helper()
	return faultPipelineFrom(t, rampFilter("Src"), mid)
}

// faultPipelineFrom is faultPipeline fed by src.
func faultPipelineFrom(t *testing.T, src, mid *ir.Filter) (*ir.Graph, *sched.Schedule, *[]float64) {
	t.Helper()
	snk, got := SliceSink("snk")
	prog := &ir.Program{Name: "fi", Top: ir.Pipe("main", src, mid, snk)}
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, s, got
}

func runSeqFault(t *testing.T, mid *ir.Filter, iters int, opts Options) ([]float64, *Engine, error) {
	t.Helper()
	g, s, got := faultPipeline(t, mid)
	e, err := NewFromGraphOpts(g, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	err = e.Run(iters)
	return *got, e, err
}

// TestSequentialPanicFailPolicy: with no recovery policy an injected panic
// surfaces as a structured *ExecError naming filter, op, and firing.
func TestSequentialPanicFailPolicy(t *testing.T) {
	_, _, err := runSeqFault(t, gainFilter("Double", 2), 16,
		Options{Faults: mustPlan(t, "panic:Double@3")})
	if err == nil {
		t.Fatal("expected an error from the injected panic")
	}
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("error %v is not an *ExecError", err)
	}
	if faults.BaseName(ee.Filter) != "Double" || ee.Iteration != 3 {
		t.Fatalf("ExecError = %+v, want filter Double at firing 3", ee)
	}
	if !strings.Contains(err.Error(), "injected panic") {
		t.Fatalf("error %q does not mention the injected panic", err)
	}
}

// TestSequentialStallFailPolicy: the single-threaded engine reports an
// injected stall synchronously (there is nothing else to make progress).
func TestSequentialStallFailPolicy(t *testing.T) {
	_, _, err := runSeqFault(t, gainFilter("Double", 2), 16,
		Options{Faults: mustPlan(t, "stall:Double@3")})
	if err == nil || !strings.Contains(err.Error(), "injected stall") {
		t.Fatalf("err = %v, want an injected-stall report", err)
	}
}

// TestSequentialRetryRecovers: Retry rolls the firing back and re-runs it;
// the one-shot fault is gone, so the output is bit-identical to a clean run.
func TestSequentialRetryRecovers(t *testing.T) {
	clean, _, err := runSeqFault(t, gainFilter("Double", 2), 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, e, err := runSeqFault(t, gainFilter("Double", 2), 16,
		Options{Faults: mustPlan(t, "panic:Double@5"), OnError: mustPolicies(t, "retry")})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(clean) {
		t.Fatalf("got %d items, want %d", len(out), len(clean))
	}
	for i := range clean {
		if out[i] != clean[i] {
			t.Fatalf("out[%d] = %v, clean run has %v", i, out[i], clean[i])
		}
	}
	st := e.Degraded()["Double"]
	if st.Injected != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v, want 1 injection and 1 retry", st)
	}
	if e.SupervisionReport() == "" {
		t.Fatal("expected a non-empty supervision report")
	}
}

// TestSequentialSkipEmitsZeros: Skip honors the static rates — the failed
// firing's input is consumed and its pushes are zeros.
func TestSequentialSkipEmitsZeros(t *testing.T) {
	clean, _, err := runSeqFault(t, gainFilter("Double", 2), 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, e, err := runSeqFault(t, gainFilter("Double", 2), 16,
		Options{Faults: mustPlan(t, "panic:Double@3"), OnError: mustPolicies(t, "Double=skip")})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(clean) {
		t.Fatalf("got %d items, want %d (skip must preserve rates)", len(out), len(clean))
	}
	diff := -1
	for i := range clean {
		if out[i] != clean[i] {
			if diff >= 0 {
				t.Fatalf("more than one output differs (%d and %d)", diff, i)
			}
			diff = i
		}
	}
	if diff < 0 {
		t.Fatal("no output differs; the skip was not observable")
	}
	if out[diff] != 0 {
		t.Fatalf("skipped firing emitted %v, want 0", out[diff])
	}
	if st := e.Degraded()["Double"]; st.Skips != 1 {
		t.Fatalf("stats = %+v, want 1 skip", st)
	}
}

// TestSequentialRestartResetsState: Restart re-initializes the filter's
// state and re-runs the firing — the accumulator restarts from zero.
func TestSequentialRestartResetsState(t *testing.T) {
	out, e, err := runSeqFault(t, accFilter("Acc"), 16,
		Options{Faults: mustPlan(t, "panic:Acc@4"), OnError: mustPolicies(t, "Acc=restart")})
	if err != nil {
		t.Fatal(err)
	}
	// Ramp input 0,1,2,...; clean prefix sums are 0,1,3,6,10. After the
	// restart at firing 4 the sum restarts: out[4] = input[4] = 4.
	if len(out) < 6 {
		t.Fatalf("got only %d items", len(out))
	}
	if out[3] != 6 {
		t.Fatalf("out[3] = %v, want 6 (untouched prefix)", out[3])
	}
	if out[4] != 4 {
		t.Fatalf("out[4] = %v, want 4 (accumulator reset by restart)", out[4])
	}
	if st := e.Degraded()["Acc"]; st.Restarts != 1 {
		t.Fatalf("stats = %+v, want 1 restart", st)
	}
}

// TestSequentialCorruptSentinel: a Corrupt fault replaces the firing's
// pushes with the sentinel value and the run continues.
func TestSequentialCorruptSentinel(t *testing.T) {
	out, e, err := runSeqFault(t, gainFilter("Double", 2), 16,
		Options{Faults: mustPlan(t, "corrupt:Double@2")})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range out {
		if v == faults.CorruptValue {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupt sentinel not in output %v", out)
	}
	if st := e.Degraded()["Double"]; st.Corrupted != 1 {
		t.Fatalf("stats = %+v, want 1 corruption", st)
	}
}

// TestRandomFaultsDeterministic: the same seed reproduces the same fault
// schedule and therefore the same degraded output, bit for bit.
func TestRandomFaultsDeterministic(t *testing.T) {
	run := func(seed string) ([]float64, map[string]DegradedStats) {
		out, e, err := runSeqFault(t, gainFilter("Double", 2), 32,
			Options{Faults: mustPlan(t, "rand:4@"+seed), OnError: mustPolicies(t, "skip")})
		if err != nil {
			t.Fatal(err)
		}
		return out, e.Degraded()
	}
	a, sa := run("42")
	b, sb := run("42")
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at item %d: %v vs %v", i, a[i], b[i])
		}
	}
	for k, v := range sa {
		if sb[k] != v {
			t.Fatalf("same seed produced different stats for %s: %+v vs %+v", k, v, sb[k])
		}
	}
}

// TestUnknownFaultFilterRejected: a plan naming a filter not in the graph
// fails at engine construction, not mid-run.
func TestUnknownFaultFilterRejected(t *testing.T) {
	g, s, _ := faultPipeline(t, gainFilter("Double", 2))
	if _, err := NewFromGraphOpts(g, s, Options{Faults: mustPlan(t, "panic:Nope@3")}); err == nil {
		t.Fatal("expected construction to reject the unknown filter")
	}
}

func runParFault(t *testing.T, mid *ir.Filter, iters int, opts Options) ([]float64, *MappedEngine, error) {
	t.Helper()
	g, s, got := faultPipeline(t, mid)
	pe, err := NewParallelOpts(g, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	err = pe.Run(iters)
	return *got, pe, err
}

// TestParallelRetryRecovers: the goroutine-per-filter engine applies the
// same rollback semantics on its batch queues.
func TestParallelRetryRecovers(t *testing.T) {
	clean, _, err := runParFault(t, gainFilter("Double", 2), 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, pe, err := runParFault(t, gainFilter("Double", 2), 16,
		Options{Faults: mustPlan(t, "panic:Double@5"), OnError: mustPolicies(t, "retry")})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(clean) {
		t.Fatalf("got %d items, want %d", len(out), len(clean))
	}
	for i := range clean {
		if out[i] != clean[i] {
			t.Fatalf("out[%d] = %v, clean run has %v", i, out[i], clean[i])
		}
	}
	if st := pe.Degraded()["Double"]; st.Retries != 1 {
		t.Fatalf("stats = %+v, want 1 retry", st)
	}
}

// TestParallelSkipEmitsZeros: Skip on the parallel engine preserves batch
// sizes and substitutes zeros for the failed firing.
func TestParallelSkipEmitsZeros(t *testing.T) {
	clean, _, err := runParFault(t, gainFilter("Double", 2), 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, pe, err := runParFault(t, gainFilter("Double", 2), 16,
		Options{Faults: mustPlan(t, "panic:Double@3"), OnError: mustPolicies(t, "skip")})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(clean) {
		t.Fatalf("got %d items, want %d", len(out), len(clean))
	}
	diff := -1
	for i := range clean {
		if out[i] != clean[i] {
			if diff >= 0 {
				t.Fatalf("more than one output differs (%d and %d)", diff, i)
			}
			diff = i
		}
	}
	if diff < 0 || out[diff] != 0 {
		t.Fatalf("want exactly one zero-substituted item, diff index %d, out %v", diff, out)
	}
	if st := pe.Degraded()["Double"]; st.Skips != 1 {
		t.Fatalf("stats = %+v, want 1 skip", st)
	}
}

// TestParallelPanicFailPolicy: without a policy, the parallel engine
// aborts the whole network and surfaces the structured error.
func TestParallelPanicFailPolicy(t *testing.T) {
	_, _, err := runParFault(t, gainFilter("Double", 2), 16,
		Options{Faults: mustPlan(t, "panic:Double@3")})
	var ee *ExecError
	if !errors.As(err, &ee) || faults.BaseName(ee.Filter) != "Double" {
		t.Fatalf("err = %v, want *ExecError for Double", err)
	}
}

// TestDynamicPanicFailPolicy: the dynamic engine surfaces injected panics
// as structured errors too.
func TestDynamicPanicFailPolicy(t *testing.T) {
	g, _, _ := faultPipeline(t, gainFilter("Double", 2))
	d, err := NewFromGraphOpts(g, nil, Options{Faults: mustPlan(t, "panic:Double@3")})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.RunItems(64)
	var ee *ExecError
	if !errors.As(err, &ee) || faults.BaseName(ee.Filter) != "Double" {
		t.Fatalf("err = %v, want *ExecError for Double", err)
	}
}

// TestDynamicCorruptSentinel: corruption injection works on the dynamic
// engine (no rollback needed).
func TestDynamicCorruptSentinel(t *testing.T) {
	g, _, got := faultPipeline(t, gainFilter("Double", 2))
	d, err := NewFromGraphOpts(g, nil, Options{Faults: mustPlan(t, "corrupt:Double@2")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunItems(32); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range *got {
		if v == faults.CorruptValue {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupt sentinel not in output %v", *got)
	}
}

// TestDynamicRejectsRecoveryPolicies: skip honours declared rates, which a
// dynamic-rate filter does not have, so recovery policies are a
// construction-time error.
func TestDynamicRejectsRecoveryPolicies(t *testing.T) {
	g, _, _ := faultPipeline(t, gainFilter("Double", 2))
	if _, err := NewFromGraphOpts(g, nil, Options{OnError: mustPolicies(t, "retry")}); err == nil {
		t.Fatal("expected the dynamic engine to reject recovery policies")
	}
}
