package wfunc

import "fmt"

// Window is the read-only view a storage tape offers of its buffered items,
// so that a consumer which has checked a whole loop's accesses against the
// occupancy can read them in place instead of through one Peek or Pop call
// per item (the VM's span instructions, internal/vm/span.go). A tape
// without it is read through Peek and Pop alone.
type Window interface {
	// Window returns the storage behind the n buffered items: the item
	// Peek(i) would return is buf[(base+i)&mask], for 0 <= i < n. mask is
	// -1 when the items are contiguous. The view is stale after any other
	// operation on the tape (a pop, a push that grows it, a restore), so
	// callers fetch it anew for every use.
	Window() (buf []float64, base, mask, n int)
	// Advance consumes pops items, as that many Pop calls would; pops must
	// not exceed the n Window just returned.
	Advance(pops int)
}

// SliceTape is a simple unbounded Tape backed by a slice. It is used by
// tests, by the linear-analysis verifier, and anywhere a filter must be run
// standalone outside the full execution engine.
type SliceTape struct {
	buf  []float64
	head int
}

// NewSliceTape returns a tape pre-loaded with items.
func NewSliceTape(items ...float64) *SliceTape {
	return &SliceTape{buf: append([]float64(nil), items...)}
}

// Peek implements Tape.
func (t *SliceTape) Peek(i int) float64 {
	ix := t.head + i
	if i < 0 || ix >= len(t.buf) {
		panic(fmt.Sprintf("tape peek(%d) beyond %d available items", i, t.Len()))
	}
	return t.buf[ix]
}

// Pop implements Tape.
func (t *SliceTape) Pop() float64 {
	if t.head >= len(t.buf) {
		panic("tape pop on empty tape")
	}
	v := t.buf[t.head]
	t.head++
	return v
}

// Push implements Tape.
func (t *SliceTape) Push(v float64) { t.buf = append(t.buf, v) }

// Window implements Window.
func (t *SliceTape) Window() ([]float64, int, int, int) { return t.buf, t.head, -1, t.Len() }

// Advance implements Window.
func (t *SliceTape) Advance(pops int) { t.head += pops }

// Len returns the number of unconsumed items.
func (t *SliceTape) Len() int { return len(t.buf) - t.head }

// Items returns the unconsumed items in order.
func (t *SliceTape) Items() []float64 {
	return append([]float64(nil), t.buf[t.head:]...)
}

// RunKernel executes a kernel standalone: it initializes fresh state, runs
// init, then fires work as many times as the input allows (leaving at least
// peek-pop items unconsumed), returning everything pushed. It is a
// convenience for testing filters in isolation.
func RunKernel(k *Kernel, input []float64) ([]float64, error) {
	in := NewSliceTape(input...)
	out := NewSliceTape()
	st := k.NewState()
	if k.Init != nil {
		env := NewEnv(k.Init)
		env.State = st
		if err := Exec(k.Init, env); err != nil {
			return nil, err
		}
	}
	env := NewEnv(k.Work)
	env.State = st
	env.In, env.Out = in, out
	for in.Len() >= k.Peek && (k.Pop > 0 || k.Peek > 0) {
		env.Reset()
		if err := Exec(k.Work, env); err != nil {
			return nil, err
		}
		if k.Pop == 0 {
			break // source-like kernel: one firing only
		}
	}
	return out.Items(), nil
}
