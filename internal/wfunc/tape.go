package wfunc

import "fmt"

// Window is the view a storage tape offers of its storage, so that a
// consumer which has checked a whole loop's accesses against it can read
// and write items in place instead of through one Peek, Pop or Push call
// per item (the VM's span instructions, internal/vm/span.go). A tape
// without it is read and written through Peek, Pop and Push alone.
type Window interface {
	// Window returns the storage behind the n buffered items: the item
	// Peek(i) would return is buf[(base+i)&mask], for 0 <= i < n. The view
	// is stale after any other operation on the tape (a pop, a push that
	// grows it, a restore), so callers fetch it anew for every use.
	Window() (buf []float64, base, mask int, n int)
	// Advance consumes pops items, as that many Pop calls would; pops must
	// not exceed the n Window just returned.
	Advance(pops int)
	// Reserve makes room for n more items at the write end and returns the
	// storage behind them: the j-th item pushed next goes to
	// buf[(base+j)&mask], for 0 <= j < n. Writing there pushes nothing; the
	// reservation, like Window's view, is stale after any other operation.
	Reserve(n int) (buf []float64, base, mask int)
	// Commit pushes the first pushes items written since Reserve, as that
	// many Push calls would; pushes must not exceed the reservation.
	Commit(pushes int)
}

// TapeFault is the panic payload of tape misuse: a peek past the buffered
// items, a pop on an empty tape, a Take of more than is buffered. It
// carries the operation, so the recover site (which knows the firing node)
// can report it; the tape itself does not know who is using it. Short is
// how many more items an underflow needed (0 for other misuse), which the
// data-driven loop waits for before a dynamic-rate filter's next attempt.
// Detail formats At (a peek's index, a take's count) and Buffered lazily,
// so raising a fault makes no call and the ring's hot operations inline.
type TapeFault struct {
	Op                  string
	At, Buffered, Short int
}

// Detail describes the misuse.
func (f TapeFault) Detail() string {
	if f.Op == "pop" {
		return "pop on empty channel"
	}
	return fmt.Sprintf("%s(%d) with %d items buffered", f.Op, f.At, f.Buffered)
}

func (f TapeFault) Error() string { return f.Op + ": " + f.Detail() }

// Ring is the one storage tape: a growable ring of float64 items
// implementing Tape and Window, behind every edge of every engine and
// every standalone run (RunKernel). Its two counters are the tape of the
// paper's semantics — Pushed is n(t), Popped is p(t) — and they are also
// its positions: item k of the edge's stream lives at buf[k&mask], and the
// buffered items are positions [Popped, Pushed). So a rollback mark, a
// checkpoint counter and a teleport progress reading are all a ring
// position, and an engine rewinds or hides items by setting a counter.
// Capacity is a power of two, so a position maps to its slot by a mask;
// grow keeps every item at its position's slot. The zero Ring is empty.
type Ring struct {
	buf            []float64
	mask           int
	Pushed, Popped int64
}

// NewRing returns an empty ring with room for at least capacity items.
func NewRing(capacity int) *Ring {
	n := 4
	for n < capacity {
		n *= 2
	}
	return &Ring{buf: make([]float64, n), mask: n - 1}
}

// Len returns the number of buffered items.
func (c *Ring) Len() int { return int(c.Pushed - c.Popped) }

// Peek returns the item i positions from the read end. Peek, Pop and Push
// inline into the VM's dispatch loop: none of them makes a call.
func (c *Ring) Peek(i int) float64 {
	if uint(i) >= uint(c.Len()) {
		panic(TapeFault{Op: "peek", At: i, Buffered: c.Len(), Short: max(i+1-c.Len(), 0)})
	}
	return c.buf[(int(c.Popped)+i)&c.mask]
}

// Pop consumes the next item.
func (c *Ring) Pop() float64 {
	if c.Popped == c.Pushed {
		panic(TapeFault{Op: "pop", Short: 1})
	}
	v := c.buf[int(c.Popped)&c.mask]
	c.Popped++
	return v
}

// Push appends an item. A full ring doubles by appending a copy of itself:
// item k sits at k&mask in either half, so every item keeps its position's
// slot.
func (c *Ring) Push(v float64) {
	if n := len(c.buf); c.Len() == n {
		c.buf = append(c.buf, c.buf...)
		if n == 0 {
			c.buf = make([]float64, 4)
		}
		c.mask = len(c.buf) - 1
	}
	c.buf[int(c.Pushed)&c.mask] = v
	c.Pushed++
}

// Window implements Window: the ring as it lies, wrap included.
func (c *Ring) Window() ([]float64, int, int, int) {
	return c.buf, int(c.Popped) & c.mask, c.mask, c.Len()
}

// Advance implements Window.
func (c *Ring) Advance(pops int) { c.Popped += int64(pops) }

// Reserve implements Window: the slots of positions [Pushed, Pushed+n),
// grown into when they do not fit.
func (c *Ring) Reserve(n int) ([]float64, int, int) {
	if len(c.buf)-c.Len() < n {
		c.grow(n)
	}
	return c.buf, int(c.Pushed) & c.mask, c.mask
}

// Commit implements Window.
func (c *Ring) Commit(pushes int) { c.Pushed += int64(pushes) }

// At returns the slot of position k, which must lie within one capacity of
// the buffered items: a committed firing's span, for a tap or a corruption.
func (c *Ring) At(k int64) *float64 { return &c.buf[int(k)&c.mask] }

// Append adds a batch at the write end.
func (c *Ring) Append(batch []float64) {
	if len(c.buf)-c.Len() < len(batch) {
		c.grow(len(batch))
	}
	c.place(c.Pushed, batch)
	c.Pushed += int64(len(batch))
}

// Take removes exactly n items from the read end into dst's storage,
// growing it when short, and returns the batch. Taking more than is
// buffered is a tape fault: the mapped engine's producer-side rate check.
func (c *Ring) Take(dst []float64, n int) []float64 {
	if n < 0 || n > c.Len() {
		panic(TapeFault{Op: "take", At: n, Buffered: c.Len()})
	}
	i := int(c.Popped) & c.mask
	first := min(n, len(c.buf)-i)
	dst = append(append(dst[:0], c.buf[i:i+first]...), c.buf[:n-first]...)
	c.Popped += int64(n)
	return dst
}

// Fill replaces the ring's content with items, at the positions from
// popped on: a setup, restore or rollback placing an edge at its counts.
func (c *Ring) Fill(popped int64, items []float64) {
	a, b := c.Refill(popped, len(items))
	copy(b, items[copy(a, items):])
}

// Refill is Fill for n items the caller writes itself: it places the ring at
// the positions from popped on and returns the slots of those n positions,
// in order, as at most two stretches of its storage — where a restore
// decodes an image's items straight into place.
func (c *Ring) Refill(popped int64, n int) (a, b []float64) {
	c.Popped, c.Pushed = popped, popped
	if len(c.buf) < n {
		c.grow(n)
	}
	c.Pushed += int64(n)
	return c.Stretches()
}

// Stretches returns the buffered items, in order, as at most two slices of
// the ring's storage: from the read end to the buffer's end, then what
// wrapped around to its start.
func (c *Ring) Stretches() (a, b []float64) {
	i, n := int(c.Popped)&c.mask, c.Len()
	if i+n <= len(c.buf) {
		return c.buf[i : i+n], nil
	}
	return c.buf[i:], c.buf[:i+n-len(c.buf)]
}

// place writes items into the slots of the positions from at on: one copy,
// or two where they wrap the buffer's end. They must fit.
func (c *Ring) place(at int64, items []float64) {
	n := copy(c.buf[int(at)&c.mask:], items)
	copy(c.buf, items[n:])
}

// grow doubles the buffer until n more items fit, each item kept at its
// position's slot.
func (c *Ring) grow(n int) {
	size := max(len(c.buf), 4)
	for size < c.Len()+n {
		size *= 2
	}
	a, b := c.Stretches()
	c.buf, c.mask = make([]float64, size), size-1
	c.place(c.Popped, a)
	c.place(c.Popped+int64(len(a)), b)
}

// RunKernel executes a kernel standalone: it initializes fresh state, runs
// init, then fires work as many times as the input allows (leaving at least
// peek-pop items unconsumed), returning everything pushed. It is a
// convenience for testing filters in isolation. A tape fault — a work
// function reading past what its declared rates let it see — is returned
// as the error, like any other runtime fault.
func RunKernel(k *Kernel, input []float64) (items []float64, err error) {
	in, out := NewRing(len(input)), NewRing(0)
	in.Append(input)
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
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(TapeFault)
			if !ok {
				panic(r)
			}
			items, err = nil, fmt.Errorf("%s: %w", k.Work.Name, f)
		}
	}()
	for in.Len() >= k.Peek && (k.Pop > 0 || k.Peek > 0) {
		env.Reset()
		if err := Exec(k.Work, env); err != nil {
			return nil, err
		}
		if k.Pop == 0 {
			break // source-like kernel: one firing only
		}
	}
	return out.Take(nil, out.Len()), nil
}
