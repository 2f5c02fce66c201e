package exec

import "fmt"

// SliceQueue is a FIFO over a slice implementing wfunc.Tape and
// wfunc.Window: the mapped engine's storage at every edge's consumer, and
// at a cross-worker edge's producer, whose content crosses in batches. It
// keeps its backing array, moving live items down in place, so a queue in
// steady state allocates nothing.
type SliceQueue struct {
	buf  []float64
	head int
}

// Append adds a batch at the write end, first moving the live items to the
// front when the batch would otherwise not fit.
func (q *SliceQueue) Append(batch []float64) {
	if len(q.buf)+len(batch) > cap(q.buf) {
		q.shift()
	}
	q.buf = append(q.buf, batch...)
}

// Take removes exactly n items from the read end into dst's storage,
// growing it when short, and returns the batch.
func (q *SliceQueue) Take(dst []float64, n int) []float64 {
	if n < 0 || n > q.Len() {
		panic(tapeFault{op: "take", detail: fmt.Sprintf("take(%d) with %d items buffered", n, q.Len())})
	}
	out := append(dst[:0], q.buf[q.head:q.head+n]...)
	q.head += n
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return out
}

// Compact drops consumed items from the front of the backing array once
// they are as many as the live ones, which pay for the copy. The mapped
// engine calls it once per cycle on every consumer queue.
func (q *SliceQueue) Compact() {
	if q.head >= q.Len() {
		q.shift()
	}
}

// shift moves the live items to the front of the backing array.
func (q *SliceQueue) shift() {
	n := copy(q.buf, q.buf[q.head:])
	q.buf = q.buf[:n]
	q.head = 0
}

// Peek implements wfunc.Tape.
func (q *SliceQueue) Peek(i int) float64 {
	if i < 0 || q.head+i >= len(q.buf) {
		panic(tapeFault{op: "peek", detail: fmt.Sprintf("peek(%d) with %d items buffered", i, q.Len())})
	}
	return q.buf[q.head+i]
}

// Pop implements wfunc.Tape.
func (q *SliceQueue) Pop() float64 {
	if q.head >= len(q.buf) {
		panic(tapeFault{op: "pop", detail: "pop on empty batch queue"})
	}
	v := q.buf[q.head]
	q.head++
	return v
}

// Window implements wfunc.Window.
func (q *SliceQueue) Window() ([]float64, int, int, int) { return q.buf, q.head, -1, q.Len() }

// Advance implements wfunc.Window.
func (q *SliceQueue) Advance(_, pops int) { q.head += pops }

// Push implements wfunc.Tape.
func (q *SliceQueue) Push(v float64) { q.buf = append(q.buf, v) }

// Len returns buffered items.
func (q *SliceQueue) Len() int { return len(q.buf) - q.head }
