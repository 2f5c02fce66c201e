package core

import (
	"os"
	"path/filepath"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/partition"
	"streamit/internal/vm"
)

// spanCounts sums the span instructions, by kind, of every IL filter in g.
func spanCounts(t *testing.T, g *ir.Graph) [4]int {
	t.Helper()
	var sum [4]int
	for _, n := range g.Nodes {
		if n.Kind != ir.NodeFilter || n.Filter.WorkFn != nil {
			continue
		}
		p, err := vm.Compile(n.Filter.Kernel.Work)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		r, d, m, mp := p.SpanCounts()
		sum[0], sum[1], sum[2], sum[3] = sum[0]+r, sum[1]+d, sum[2]+m, sum[3]+mp
	}
	return sum
}

// TestSuiteSpanKernels pins, per program the benchmark runs, how many loops
// of its work functions the VM compiles to span instructions (reduce,
// drain, move, map) — in the program as written and in the task+data plan's
// rewrite for 2 workers, whose fused kernels are what mapped-fission runs.
// A change to lang's lowering, wfunc.FoldKernel, fuse.Chain or the VM's
// recogniser that stops a loop matching costs that loop its speed-up of
// several times and moves no other test; it fails here instead. Raise a
// row when the family grows.
func TestSuiteSpanKernels(t *testing.T) {
	check := func(name, what string, got, want [4]int) {
		t.Helper()
		if got != want {
			t.Errorf("%s, %s: span instructions reduce/drain/move/map = %d/%d/%d/%d, want %d/%d/%d/%d",
				name, what, got[0], got[1], got[2], got[3], want[0], want[1], want[2], want[3])
		}
	}
	suite := map[string]struct{ flat, plan [4]int }{
		"BitonicSort":    {[4]int{0, 21, 0, 20}, [4]int{0, 21, 0, 20}},
		"ChannelVocoder": {[4]int{17, 2, 0, 0}, [4]int{17, 2, 0, 0}},
		"DCT":            {[4]int{3, 4, 0, 0}, [4]int{6, 1, 0, 0}},
		"DES":            {[4]int{0, 81, 0, 96}, [4]int{0, 33, 0, 48}},
		"FFT":            {[4]int{0, 6, 0, 5}, [4]int{0, 6, 0, 5}},
		"FilterBank":     {[4]int{17, 10, 0, 0}, [4]int{17, 2, 0, 0}},
		"FMRadio":        {[4]int{22, 2, 0, 0}, [4]int{22, 2, 0, 0}},
		"Serpent":        {[4]int{0, 97, 0, 96}, [4]int{0, 3, 0, 2}},
		"TDE":            {[4]int{10, 11, 0, 0}, [4]int{20, 3, 0, 0}},
		"MPEG2Decoder":   {[4]int{1, 4, 0, 2}, [4]int{2, 3, 0, 1}},
		"Vocoder":        {[4]int{17, 2, 0, 0}, [4]int{17, 2, 0, 0}},
		"Radar":          {[4]int{28, 5, 48, 0}, [4]int{28, 5, 48, 0}},
	}
	for _, app := range apps.Suite() {
		want, ok := suite[app.Name]
		if !ok {
			t.Errorf("%s: no row in the table", app.Name)
			continue
		}
		c, err := Compile(app.Build(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		check(app.Name, "as written", spanCounts(t, c.Graph), want.flat)
		// Fusion turns a stage's drains into cursor arithmetic and its
		// peeks into loads from the edge array, so the plan's counts differ.
		plan, err := partition.BuildExecPlan(c.Program, c.Graph, c.Schedule,
			partition.ExecPlanOptions{Strategy: partition.StratCoarseData, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		g2, err := ir.Flatten(plan.Program)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		check(app.Name, "task+data plan for 2 workers", spanCounts(t, g2), want.plan)
	}
	// freqhop.str has no loop at all: the benchmark's bypass.
	for name, want := range map[string][4]int{
		"fmradio.str": {14, 0, 0, 0}, "filterbank.str": {9, 4, 0, 4}, "bitonic.str": {0, 13, 0, 12}, "freqhop.str": {0, 0, 0, 0},
	} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "strprogs", name))
		if err != nil {
			t.Fatal(err)
		}
		c, err := CompileSource(string(src), "Main", Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, "as written", spanCounts(t, c.Graph), want)
	}
}
