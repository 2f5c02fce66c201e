package fuse_test

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/core"
	"streamit/internal/exec"
	"streamit/internal/fuse"
	"streamit/internal/ir"
	"streamit/internal/partition"
	"streamit/internal/wfunc"
)

// planVerdicts builds app's task+data plan for 2 workers and returns, per
// fused kernel of it that drops trips (fission replicas once), the trips
// fuse.Chain keeps of each constituent, "kept/mult" joined by spaces, and
// how many fused kernels keep every trip.
func planVerdicts(t *testing.T, app apps.App) (dropped map[string]string, whole int) {
	t.Helper()
	c, err := core.Compile(app.Build(), core.Options{})
	if err != nil {
		t.Fatalf("%s: %v", app.Name, err)
	}
	byName := map[string]*ir.Filter{}
	for _, n := range c.Graph.Nodes {
		if n.Kind == ir.NodeFilter {
			byName[n.Filter.Kernel.Name] = n.Filter
		}
	}
	plan, err := partition.BuildExecPlan(c.Program, c.Graph, c.Schedule,
		partition.ExecPlanOptions{Strategy: partition.StratCoarseData, Workers: 2})
	if err != nil {
		t.Fatalf("%s: %v", app.Name, err)
	}
	g, err := ir.Flatten(plan.Program)
	if err != nil {
		t.Fatalf("%s: %v", app.Name, err)
	}
	replica := regexp.MustCompile(`/f[0-9]+$`)
	dropped, seen := map[string]string{}, map[string]bool{}
	for _, n := range g.Nodes {
		if n.Kind != ir.NodeFilter {
			continue
		}
		name := replica.ReplaceAllString(n.Filter.Kernel.Name, "")
		if !strings.Contains(name, "+") || seen[name] {
			continue
		}
		seen[name] = true
		var seg []*ir.Filter
		for _, part := range strings.Split(name, "+") {
			seg = append(seg, byName[part])
		}
		_, trips, err := fuse.Chain(name, seg...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var v []string
		drops := false
		for _, tr := range trips {
			v = append(v, fmt.Sprintf("%d/%d", tr.Kept, tr.Of))
			drops = drops || tr.Kept < tr.Of
		}
		if !drops {
			whole++
			continue
		}
		dropped[name] = strings.Join(v, " ")
	}
	return dropped, whole
}

// TestChainDeadTripsSuite pins the dropped-trip verdict of every fused
// kernel in the task+data plans of the 12 apps and of the linear suite's
// decimating chains: only FilterBank's 8 heads drop trips, each keeping 1
// of its FIR's 8 rows — the one its Downsample reads — and so do
// FilterBankL's (32 taps), RateConvert's interp+down3 (1 of 3) and DToA's
// da_shape+da_dec (1 of 2).
// Every other fused kernel keeps every trip.
func TestChainDeadTripsSuite(t *testing.T) {
	heads := map[string]string{}
	for i := range 8 {
		heads[fmt.Sprintf("analysis%d+down%d+up%d", i, i, i)] = "1/8 1/1 1/1"
	}
	want := map[string]map[string]string{
		"FilterBank":  heads,
		"FilterBankL": heads,
		"RateConvert": {"interp+down3": "1/3 1/1"},
		"DToA":        {"da_shape+da_dec": "1/2 1/1"},
	}
	for _, app := range append(apps.Suite(), apps.LinearSuite()...) {
		dropped, whole := planVerdicts(t, app)
		w := want[app.Name]
		if w == nil {
			w = map[string]string{}
		}
		if fmt.Sprint(dropped) != fmt.Sprint(w) {
			t.Errorf("%s: dropped trips %v, want %v", app.Name, dropped, w)
		}
		t.Logf("%s: %d fused kernels keep every trip, %d drop some", app.Name, whole, len(dropped))
	}
}

// TestChainRefusesReadPastWindow: a stage behind the head that reads past
// its declared window would read the edge array it shares instead of
// faulting, so Chain and CanFollow refuse it by name, the task+data plan
// leaves the pair unfused, and the plan faults as the pipeline does.
func TestChainRefusesReadPastWindow(t *testing.T) {
	wantRefusedLikePipeline(t, func(kb *wfunc.KernelBuilder) {
		i, sum := kb.Local("i"), kb.Local("sum")
		kb.WorkBody(wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(2), wfunc.Set(sum, wfunc.AddX(sum, wfunc.PeekX(i)))),
			wfunc.Push1(sum), wfunc.Pop1())
	}, "B reads item 1 of its input, past its window of 1", "peek(1) with 1 items buffered")
}

// TestChainRefusesNegativePeek: a stage behind the head that pops and then
// peeks at index -1 would read the item it just popped from the edge
// array, where the pipeline's tape faults; Chain and CanFollow refuse it.
func TestChainRefusesNegativePeek(t *testing.T) {
	wantRefusedLikePipeline(t, func(kb *wfunc.KernelBuilder) {
		i, sum := kb.Local("i"), kb.Local("sum")
		kb.WorkBody(wfunc.Pop1(),
			wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(1), wfunc.Set(sum, wfunc.AddX(sum, wfunc.PeekX(wfunc.SubX(i, wfunc.Ci(1)))))),
			wfunc.Push1(sum))
	}, "B peeks at index -1", "peek at firing 0: peek(-1) with")
}

// wantRefusedLikePipeline builds A (push peek(0), push pop()) then B (peek
// 1, pop 1, push 1, its body from bodyB) between a three-item source and a
// sink: Chain and CanFollow refuse the pair with an error containing
// refusal, the pipeline ends in fault, and so does the task+data plan,
// which leaves the pair unfused.
func wantRefusedLikePipeline(t *testing.T, bodyB func(*wfunc.KernelBuilder), refusal, fault string) {
	t.Helper()
	build := func() (*ir.Program, *[]float64) {
		ka := wfunc.NewKernel("A", 1, 1, 2)
		ka.WorkBody(wfunc.Push1(wfunc.PeekE(0)), wfunc.Push1(wfunc.PopE()))
		kb := wfunc.NewKernel("B", 1, 1, 1)
		bodyB(kb)
		snk, got := exec.SliceSink("snk")
		return &ir.Program{Name: "p", Top: ir.Pipe("main", exec.SliceSource("src", []float64{1, 2, 3}),
			&ir.Filter{Kernel: ka.Build(), In: ir.TypeFloat, Out: ir.TypeFloat},
			&ir.Filter{Kernel: kb.Build(), In: ir.TypeFloat, Out: ir.TypeFloat}, snk)}, got
	}
	prog, _ := build()
	a, b := prog.Top.(*ir.Pipeline).Children[1].(*ir.Filter), prog.Top.(*ir.Pipeline).Children[2].(*ir.Filter)
	if _, _, err := fuse.Chain("AB", a, b); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Errorf("Chain: %v, want an error containing %q", err, refusal)
	}
	if err := fuse.CanFollow(a, b); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Errorf("CanFollow: %v, want an error containing %q", err, refusal)
	}
	_, pipeErr := exec.RunCollect(prog, 4, new([]float64))
	if pipeErr == nil || !strings.Contains(pipeErr.Error(), fault) {
		t.Fatalf("pipeline: %v, want the %q fault", pipeErr, fault)
	}
	fresh, _ := build()
	c, err := core.Compile(fresh, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildExecPlan(c.Program, c.Graph, c.Schedule,
		partition.ExecPlanOptions{Strategy: partition.StratCoarseData, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ir.Flatten(plan.Program)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if n.Kind == ir.NodeFilter && strings.Contains(n.Filter.Kernel.Name, "+") {
			t.Errorf("the plan fused %s", n.Filter.Kernel.Name)
		}
	}
	if _, err := exec.RunCollect(plan.Program, 4, new([]float64)); err == nil || !strings.Contains(err.Error(), fault) {
		t.Errorf("plan: %v, want the %q fault", err, fault)
	}
}
