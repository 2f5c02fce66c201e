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

// runBudget fires every node exactly budget[nodeID] times (see
// scheduleBudget) through the firing core's data-driven loop in goal mode.
// RunItems stops on a sink-item count with producers up to ahead items in
// front; a budgeted run stops every node at the schedule's count, which is
// what lets the cross-engine conformance suite compare the schedule-less
// engine's profile against the schedule-driven ones. An infeasible budget
// fails with the loop's *DeadlockError.
func (e *Engine) runBudget(budget []int64) (err error) {
	defer e.blameFiring(&err)
	_, err = e.dataDriven(e.order, goal{fires: budget}, "sequential", &e.cur)
	return err
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

// slots is a ring's capacity: the length of the storage its window lies in.
func slots(r *wfunc.Ring) int {
	buf, _, _, _ := r.Window()
	return len(buf)
}
