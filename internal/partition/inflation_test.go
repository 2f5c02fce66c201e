package partition

import (
	"fmt"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// staticWorkPerSinkItem is the static estimator's cycle count of everything
// the filters of g do in one steady iteration, per item the sinks receive:
// the machine-independent measure of how much work a graph spends on one
// unit of output.
func staticWorkPerSinkItem(t *testing.T, g *ir.Graph, s *sched.Schedule) float64 {
	t.Helper()
	var cycles, items int64
	for _, n := range g.Nodes {
		if n.Kind != ir.NodeFilter {
			continue
		}
		reps := int64(s.Reps[n.ID])
		cycles += reps * wfunc.EstimateKernel(n.Filter.Kernel).Cycles
		if n.IsSink() {
			items += reps * int64(n.TotalPop())
		}
	}
	if items == 0 {
		t.Fatal("graph delivers no sink items")
	}
	return float64(cycles) / float64(items)
}

// TestRewriteDoesNotInflateWork is the regression gate on the executable
// rewrite's cost: coarsening and fission may rearrange the work of a
// program, never multiply it. For every suite app, every rewriting
// strategy and 2 and 4 workers, every filter the plan synthesized is plain
// IL — so the static estimator sees all of the work, which a native closure
// would hide — and the rewritten graph's static work per sink item stays
// within 10% of the original's (the margin pays for the array traffic of
// fused edges and the skipped windows of peeking replicas). Fusion by
// recomputing peek history did 50x the work on FMRadio behind closures.
func TestRewriteDoesNotInflateWork(t *testing.T) {
	for _, app := range apps.Suite() {
		prog := app.Build()
		g, err := ir.Flatten(prog)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.Compute(g)
		if err != nil {
			t.Fatal(err)
		}
		before := staticWorkPerSinkItem(t, g, s)
		for _, strat := range []Strategy{StratCoarseData, StratFineData, StratCombined} {
			for _, workers := range []int{2, 4} {
				what := fmt.Sprintf("%s under %s on %d workers", app.Name, strat, workers)
				plan, err := BuildExecPlan(prog, g, s, ExecPlanOptions{Strategy: strat, Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				g2, err := ir.Flatten(plan.Program)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				s2, err := sched.Compute(g2)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if x := staticWorkPerSinkItem(t, g2, s2) / before; x > 1.1 {
					t.Errorf("%s: the rewrite does %.2fx the original's static work per sink item", what, x)
				}
				for _, n := range g2.Nodes {
					if n.Kind != ir.NodeFilter || g.FilterNode[n.Filter] != nil {
						continue
					}
					if n.Filter.WorkFn != nil {
						t.Errorf("%s: synthesized filter %s has a native work function", what, n.Name)
					}
					if err := wfunc.Validate(n.Filter.Kernel); err != nil {
						t.Errorf("%s: synthesized filter %s: %v", what, n.Name, err)
					}
				}
			}
		}
	}
}
