package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/linear"
	"streamit/internal/partition"
	"streamit/internal/vm"
)

// spanCounts sums the span instructions, by kind, of every IL filter in g,
// and counts its row kernels.
func spanCounts(t *testing.T, g *ir.Graph) (sum [5]int, rows int) {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Kind != ir.NodeFilter || n.Filter.WorkFn != nil {
			continue
		}
		p, err := vm.Compile(n.Filter.Kernel.Work)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		r, d, m, mp, rw := p.SpanCounts()
		sum[0], sum[1], sum[2], sum[3], sum[4] = sum[0]+r, sum[1]+d, sum[2]+m, sum[3]+mp, sum[4]+rw
		if vm.NewMachine(p).RowKernel() {
			rows++
		}
	}
	return sum, rows
}

// TestSuiteSpanKernels pins, per program the benchmark and E7 run, how many loops
// of its work functions the VM compiles to span instructions (reduce,
// drain, move, map, rows) and how many of its work functions are row kernels,
// which blocks run four firings at a time — in the program as written and
// in the task+data plan's rewrite for 2 workers, whose fused kernels are
// what mapped-fission runs.
// A change to lang's lowering, wfunc.FoldKernel, fuse.Chain or the VM's
// recogniser that stops a loop matching costs that loop its speed-up of
// several times and moves no other test; it fails here instead. Raise a
// row when the family grows.
func TestSuiteSpanKernels(t *testing.T) {
	check := func(name, what string, g *ir.Graph, want [5]int, wantRows int) {
		t.Helper()
		got, rows := spanCounts(t, g)
		if got != want {
			t.Errorf("%s, %s: span instructions reduce/drain/move/map/rows = %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d",
				name, what, got[0], got[1], got[2], got[3], got[4], want[0], want[1], want[2], want[3], want[4])
		}
		if rows != wantRows {
			t.Errorf("%s, %s: %d row kernels, want %d", name, what, rows, wantRows)
		}
	}
	suite := map[string]struct {
		flat, plan         [5]int
		flatRows, planRows int
	}{
		"BitonicSort":    {[5]int{0, 21, 0, 20, 0}, [5]int{0, 21, 0, 20, 0}, 0, 0},
		"ChannelVocoder": {[5]int{17, 2, 0, 0, 0}, [5]int{17, 2, 0, 0, 0}, 17, 17},
		"DCT":            {[5]int{3, 4, 0, 0, 3}, [5]int{6, 1, 0, 0, 0}, 0, 0},
		"DES":            {[5]int{0, 81, 0, 96, 0}, [5]int{0, 33, 0, 96, 0}, 0, 0},
		"FFT":            {[5]int{0, 6, 0, 5, 0}, [5]int{0, 6, 0, 5, 0}, 0, 0},
		"FilterBank":     {[5]int{17, 10, 0, 0, 0}, [5]int{17, 10, 0, 0, 0}, 17, 9},
		"FMRadio":        {[5]int{22, 2, 0, 0, 0}, [5]int{22, 2, 0, 0, 0}, 22, 22},
		"Serpent":        {[5]int{0, 97, 0, 96, 0}, [5]int{0, 3, 0, 192, 0}, 0, 0},
		"TDE":            {[5]int{10, 11, 0, 0, 10}, [5]int{20, 3, 0, 0, 2}, 0, 0},
		"MPEG2Decoder":   {[5]int{1, 4, 0, 2, 1}, [5]int{2, 3, 0, 2, 0}, 0, 0},
		"Vocoder":        {[5]int{17, 2, 0, 0, 0}, [5]int{17, 2, 0, 0, 0}, 17, 17},
		"Radar":          {[5]int{28, 5, 48, 0, 4}, [5]int{28, 5, 48, 0, 4}, 0, 0},
		// The linear suite, as E7 runs it unoptimised.
		"FIR":          {[5]int{1, 1, 0, 0, 0}, [5]int{2, 3, 0, 0, 0}, 1, 2},
		"RateConvert":  {[5]int{2, 2, 0, 0, 0}, [5]int{4, 7, 0, 0, 0}, 2, 2},
		"TargetDetect": {[5]int{4, 1, 0, 0, 0}, [5]int{8, 9, 0, 0, 0}, 4, 8},
		"FMRadioL":     {[5]int{14, 2, 0, 0, 0}, [5]int{14, 2, 0, 0, 0}, 14, 14},
		"FilterBankL":  {[5]int{17, 10, 0, 0, 0}, [5]int{17, 10, 0, 0, 0}, 17, 9},
		"Oversampler":  {[5]int{4, 1, 0, 0, 0}, [5]int{7, 7, 0, 0, 0}, 4, 2},
		"DToA":         {[5]int{2, 2, 0, 0, 0}, [5]int{4, 7, 0, 0, 0}, 2, 2},
	}
	for _, app := range append(apps.Suite(), apps.LinearSuite()...) {
		want, ok := suite[app.Name]
		if !ok {
			t.Errorf("%s: no row in the table", app.Name)
			continue
		}
		c, err := Compile(app.Build(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		check(app.Name, "as written", c.Graph, want.flat, want.flatRows)
		// Fusion turns a stage's drains into cursor arithmetic, its peeks
		// into loads from the edge array and its pushes into stores to the
		// next, so the plan's counts differ. FilterBank's fused heads keep
		// only the FIR row their Downsample reads (fuse's dead trips): a
		// reduce span and a drain each, the counts as written.
		plan, err := partition.BuildExecPlan(c.Program, c.Graph, c.Schedule,
			partition.ExecPlanOptions{Strategy: partition.StratCoarseData, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		g2, err := ir.Flatten(plan.Program)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		check(app.Name, "task+data plan for 2 workers", g2, want.plan, want.planRows)
	}
	// The linear suite as E7 runs it optimised: every LinearMatrix kernel
	// is a row kernel when it pushes one item, else one rows span (its
	// inner loop counts as a reduce span too). FIR has nothing to combine
	// and runs as written; each FilterBankL branch is two regions, the
	// analysis FIR with its decimator (a row kernel) and the expander with
	// the synthesis FIR (a rows span).
	for name, want := range map[string]struct {
		spans [5]int
		rows  int
	}{
		"FIR": {[5]int{1, 1, 0, 0, 0}, 1}, "RateConvert": {[5]int{2, 2, 0, 0, 1}, 1},
		"TargetDetect": {[5]int{1, 2, 0, 0, 1}, 0}, "FMRadioL": {[5]int{2, 2, 0, 0, 0}, 2},
		"FilterBankL": {[5]int{17, 18, 0, 0, 8}, 9}, "Oversampler": {[5]int{1, 2, 0, 0, 1}, 0},
		"DToA": {[5]int{1, 2, 0, 0, 0}, 1},
	} {
		c := compileOptimised(t, name)
		check(name, "optimised", c.Graph, want.spans, want.rows)
		for _, n := range c.Graph.Nodes {
			if n.Kind != ir.NodeFilter || !strings.HasPrefix(n.Filter.Kernel.Name, "LinearMatrix") {
				continue
			}
			k := n.Filter.Kernel
			p, err := vm.Compile(k.Work)
			if err != nil {
				t.Fatalf("%s: %v", n.Name, err)
			}
			_, _, _, _, rw := p.SpanCounts()
			if row := vm.NewMachine(p).RowKernel(); k.Push == 1 && !row || k.Push > 1 && rw != 1 {
				t.Errorf("%s, %s (push %d): row kernel %v, %d rows spans", name, n.Name, k.Push, row, rw)
			}
		}
	}
	// freqhop.str has no loop at all: the benchmark's bypass. The FIRs of
	// fmradio.str and filterbank.str are row kernels, and so is
	// filterbank.str's adder; fmradio.str's divides its sum.
	for name, want := range map[string]struct {
		spans [5]int
		rows  int
	}{
		"fmradio.str": {[5]int{14, 0, 0, 0, 0}, 14}, "filterbank.str": {[5]int{9, 4, 0, 4, 0}, 9},
		"bitonic.str": {[5]int{0, 13, 0, 12, 0}, 0}, "freqhop.str": {[5]int{0, 0, 0, 0, 0}, 0},
	} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "strprogs", name))
		if err != nil {
			t.Fatal(err)
		}
		c, err := CompileSource(string(src), "Main", Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, "as written", c.Graph, want.spans, want.rows)
	}
}

// compileOptimised compiles the linear-suite program name after
// linear.Optimize with combination on, as E7 runs it.
func compileOptimised(t *testing.T, name string) *Compiled {
	t.Helper()
	for _, app := range apps.LinearSuite() {
		if app.Name != name {
			continue
		}
		lo := linear.Options{Combine: true}
		c, err := Compile(app.Build(), Options{Linear: &lo})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return c
	}
	t.Fatalf("%s: not in the linear suite", name)
	return nil
}

// TestLinearSuiteReport pins what the optimiser decides for each program
// of the linear suite: the linear filters it finds, the filters combination
// removes, and how many regions become matrix kernels. A change to the
// kernels it emits must leave these where they are; a change to its cost
// model moves them on purpose. FilterBankL's eight branches each split in
// two at the expander: with it, the first region's nest would multiply
// the seven zero rows it stuffs in, and combined whole, a branch would
// recompute each decimated sample for every output row that reads it.
func TestLinearSuiteReport(t *testing.T) {
	for name, want := range map[string][3]int{
		"FIR":          {1, 0, 0},
		"RateConvert":  {4, 2, 1},
		"TargetDetect": {8, 7, 1},
		"FMRadioL":     {20, 18, 1},
		"FilterBankL":  {33, 16, 16},
		"Oversampler":  {8, 7, 1},
		"DToA":         {4, 3, 1},
	} {
		r := compileOptimised(t, name).Linear
		if got := [3]int{r.LinearFilters, r.Combined, r.MatrixReplaced}; got != want {
			t.Errorf("%s: linear/combined/matrix = %v, want %v", name, got, want)
		}
	}
}
