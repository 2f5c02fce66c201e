package exec

import (
	"fmt"
	"math/rand"

	"streamit/internal/ir"
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
