// Package exec runs flattened StreamIt graphs. Two engines — the
// sequential engine (the oracle, with teleport messaging and MAX_LATENCY
// constraints on the schedule) and the mapped engine (worker goroutines
// over batched queues, every parallel plan) — fire their nodes through one
// firing core (fire.go): filters run their IL work functions (or native Go
// kernels), splitters and joiners route values, and teleport messages are
// delivered at the tape positions dictated by the information-wavefront
// semantics. The engines own only their tapes, their rollback marks, their
// progress counting and their outer loops. Programs with data-dependent
// rates run on the sequential engine built without a schedule, under a
// data-driven loop of their own (DynamicEngine).
package exec

import "fmt"

// channel is a growable ring buffer of float64 items implementing the
// wfunc.Tape contract for its consumer (Peek/Pop) and producer (Push).
// It also tracks the tape counters of the paper's semantics: pushed is
// n(t), popped is p(t). Capacity is kept a power of two so position
// wrapping is a mask, not a division — Peek/Pop/Push are the innermost
// operations of every backend.
type channel struct {
	buf    []float64
	mask   int
	head   int
	count  int
	pushed int64
	popped int64
}

func newChannel(capacity int) *channel {
	n := 4
	for n < capacity {
		n *= 2
	}
	return &channel{buf: make([]float64, n), mask: n - 1}
}

// Peek returns the item i positions from the read end.
func (c *channel) Peek(i int) float64 {
	if i < 0 || i >= c.count {
		panic(tapeFault{op: "peek", detail: fmt.Sprintf("peek(%d) with %d items buffered", i, c.count),
			short: max(i+1-c.count, 0)})
	}
	return c.buf[(c.head+i)&c.mask]
}

// Pop consumes the next item.
func (c *channel) Pop() float64 {
	if c.count == 0 {
		panic(tapeFault{op: "pop", detail: "pop on empty channel", short: 1})
	}
	v := c.buf[c.head]
	c.head = (c.head + 1) & c.mask
	c.count--
	c.popped++
	return v
}

// Push appends an item, growing the buffer when full.
func (c *channel) Push(v float64) {
	if c.count == len(c.buf) {
		c.grow()
	}
	c.buf[(c.head+c.count)&c.mask] = v
	c.count++
	c.pushed++
}

// Window implements wfunc.Window: the ring as it lies, wrap included.
func (c *channel) Window() ([]float64, int, int, int) { return c.buf, c.head, c.mask, c.count }

// Advance implements wfunc.Window.
func (c *channel) Advance(_, pops int) {
	c.head = (c.head + pops) & c.mask
	c.count -= pops
	c.popped += int64(pops)
}

func (c *channel) grow() {
	nb := make([]float64, 2*len(c.buf))
	for i := 0; i < c.count; i++ {
		nb[i] = c.buf[(c.head+i)&c.mask]
	}
	c.buf = nb
	c.mask = len(nb) - 1
	c.head = 0
}

// Len returns the number of buffered items.
func (c *channel) Len() int { return c.count }
