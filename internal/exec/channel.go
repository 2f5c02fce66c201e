// Package exec runs flattened StreamIt graphs. Two engines — the
// sequential engine (the oracle, with teleport messaging and MAX_LATENCY
// constraints on the schedule) and the mapped engine (worker goroutines
// over batched queues, every parallel plan) — fire their nodes through one
// firing core (fire.go): filters run their IL work functions (or native Go
// kernels), splitters and joiners route values, and teleport messages are
// delivered at the tape positions dictated by the information-wavefront
// semantics. The engines own only the placement of their rings, their
// progress counting and their outer loops. Programs with data-dependent
// rates run on the sequential engine built without a schedule, under a
// data-driven loop of their own (DynamicEngine).
package exec

import "fmt"

// channel is the one tape of every engine: a growable ring of float64
// items implementing wfunc.Tape and wfunc.Window. Its two counters are the
// tape of the paper's semantics — pushed is n(t), popped is p(t) — and they
// are also its positions: item k of the edge's stream lives at buf[k&mask],
// and the buffered items are positions [popped, pushed). The sequential
// engine holds one ring per edge; the mapped engine one at each edge's
// consumer and, on an edge that crosses workers, a staging ring at its
// producer whose positions continue across the link into the consumer's.
// So a rollback mark, a checkpoint counter and a teleport progress reading
// are all a ring position. Capacity is a power of two, so a position maps
// to its slot by a mask; grow keeps every item at its position's slot.
type channel struct {
	buf            []float64
	mask           int
	pushed, popped int64
}

func newChannel(capacity int) *channel {
	n := 4
	for n < capacity {
		n *= 2
	}
	return &channel{buf: make([]float64, n), mask: n - 1}
}

// Len returns the number of buffered items.
func (c *channel) Len() int { return int(c.pushed - c.popped) }

// Peek returns the item i positions from the read end.
func (c *channel) Peek(i int) float64 {
	if n := c.Len(); i < 0 || i >= n {
		panic(tapeFault{op: "peek", detail: fmt.Sprintf("peek(%d) with %d items buffered", i, n), short: max(i+1-n, 0)})
	}
	return c.buf[(int(c.popped)+i)&c.mask]
}

// Pop consumes the next item.
func (c *channel) Pop() float64 {
	if c.popped == c.pushed {
		panic(tapeFault{op: "pop", detail: "pop on empty channel", short: 1})
	}
	v := c.buf[int(c.popped)&c.mask]
	c.popped++
	return v
}

// Push appends an item, growing the buffer when full.
func (c *channel) Push(v float64) {
	if c.Len() == len(c.buf) {
		c.grow(1)
	}
	c.buf[int(c.pushed)&c.mask] = v
	c.pushed++
}

// Window implements wfunc.Window: the ring as it lies, wrap included.
func (c *channel) Window() ([]float64, int, int, int) {
	return c.buf, int(c.popped) & c.mask, c.mask, c.Len()
}

// Advance implements wfunc.Window.
func (c *channel) Advance(pops int) { c.popped += int64(pops) }

// Append adds a batch at the write end.
func (c *channel) Append(batch []float64) {
	if len(c.buf)-c.Len() < len(batch) {
		c.grow(len(batch))
	}
	c.place(c.pushed, batch)
	c.pushed += int64(len(batch))
}

// Take removes exactly n items from the read end into dst's storage,
// growing it when short, and returns the batch. Taking more than is
// buffered is a tape fault: the mapped engine's producer-side rate check.
func (c *channel) Take(dst []float64, n int) []float64 {
	if n < 0 || n > c.Len() {
		panic(tapeFault{op: "take", detail: fmt.Sprintf("take(%d) with %d items buffered", n, c.Len())})
	}
	i := int(c.popped) & c.mask
	first := min(n, len(c.buf)-i)
	dst = append(append(dst[:0], c.buf[i:i+first]...), c.buf[:n-first]...)
	c.popped += int64(n)
	return dst
}

// fill replaces the ring's content with items, at the positions from
// popped on: a setup, restore or rollback placing an edge at its counts.
func (c *channel) fill(popped int64, items []float64) {
	c.popped, c.pushed = popped, popped
	c.Append(items)
}

// stretches returns the buffered items, in order, as at most two slices of
// the ring's storage: from the read end to the buffer's end, then what
// wrapped around to its start.
func (c *channel) stretches() (a, b []float64) {
	i, n := int(c.popped)&c.mask, c.Len()
	if i+n <= len(c.buf) {
		return c.buf[i : i+n], nil
	}
	return c.buf[i:], c.buf[:i+n-len(c.buf)]
}

// place writes items into the slots of the positions from at on: one copy,
// or two where they wrap the buffer's end. They must fit.
func (c *channel) place(at int64, items []float64) {
	n := copy(c.buf[int(at)&c.mask:], items)
	copy(c.buf, items[n:])
}

// grow doubles the buffer until n more items fit, each item kept at its
// position's slot.
func (c *channel) grow(n int) {
	size := len(c.buf)
	for size < c.Len()+n {
		size *= 2
	}
	a, b := c.stretches()
	c.buf, c.mask = make([]float64, size), size-1
	c.place(c.popped, a)
	c.place(c.popped+int64(len(a)), b)
}
