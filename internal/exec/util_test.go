package exec

import (
	"fmt"
	"math/rand"

	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// Test utilities shared by the parallel cross-check tests.

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func letter(prefix string, i int) string { return fmt.Sprintf("%s%d", prefix, i) }

// rampFilter emits 0, 1, 2, ... (stateful source).
func rampFilter(name string) *ir.Filter {
	b := wfunc.NewKernel(name, 0, 0, 1)
	n := b.Field("n", 0)
	b.WorkBody(wfunc.Push1(n), wfunc.SetF(n, wfunc.AddX(n, wfunc.C(1))))
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeVoid, Out: ir.TypeFloat}
}

// nullSink returns an IL filter that discards pop items per firing.
func nullSink(name string, pop int) *ir.Filter {
	b := wfunc.NewKernel(name, pop, pop, 0)
	var body []wfunc.Stmt
	for i := 0; i < pop; i++ {
		body = append(body, wfunc.Pop1())
	}
	b.WorkBody(body...)
	return &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeVoid}
}

// scheduleBudget returns per-node firing budgets equal to a static
// schedule's init phase plus iters steady iterations — the firing counts
// the sequential and mapped engines produce for the same run length.
func scheduleBudget(s *sched.Schedule, iters int) []int64 {
	budget := make([]int64, len(s.Reps))
	for i := range budget {
		budget[i] = int64(s.InitReps[i]) + int64(iters)*int64(s.Reps[i])
	}
	return budget
}

// runBudget executes until every node has fired exactly budget[nodeID]
// times (see scheduleBudget). Unlike Run, which stops on a sink-item count
// and leaves upstream firing counts nondeterministic, a budgeted run is
// fully deterministic in its observable counters — this is what lets the
// cross-engine conformance suite compare the demand-driven engine against
// the schedule-driven ones. An infeasible budget wedges and is reported by
// the watchdog.
func (d *DynamicEngine) runBudget(budget []int64) error {
	if len(budget) != len(d.G.Nodes) {
		return fmt.Errorf("exec: budget for %d nodes, graph has %d", len(budget), len(d.G.Nodes))
	}
	return d.run(0, budget)
}

// wfuncKernel builds a deterministic kernel with the given rates: each
// output is a scaled sum over the peek window plus the output index.
func wfuncKernel(name string, peek, pop, push int, scale float64) *wfunc.Kernel {
	b := wfunc.NewKernel(name, peek, pop, push)
	i := b.Local("i")
	s := b.Local("s")
	var body []wfunc.Stmt
	if peek > 0 {
		body = append(body, wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(peek),
			wfunc.Set(s, wfunc.AddX(s, wfunc.PeekX(i)))))
	}
	for j := 0; j < push; j++ {
		body = append(body, wfunc.Push1(wfunc.AddX(wfunc.MulX(s, wfunc.C(scale)), wfunc.Ci(j))))
	}
	for j := 0; j < pop; j++ {
		body = append(body, wfunc.Pop1())
	}
	b.WorkBody(body...)
	return b.Build()
}

// sliceBuffer is a minimal io.Writer over an owned byte slice.
type sliceBuffer []byte

func (b *sliceBuffer) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}
