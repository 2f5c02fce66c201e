package exec

import "fmt"

// SliceQueue is a simple FIFO over a slice implementing wfunc.Tape; the
// mapped engine uses one per edge end, with batch append/take across
// workers.
type SliceQueue struct {
	buf  []float64
	head int
}

// Append adds a batch at the write end.
func (q *SliceQueue) Append(batch []float64) {
	// Compact occasionally so the backing array doesn't grow unboundedly.
	if q.head > 4096 && q.head >= len(q.buf)/2 {
		q.buf = append([]float64(nil), q.buf[q.head:]...)
		q.head = 0
	}
	q.buf = append(q.buf, batch...)
}

// Take removes exactly n items from the read end.
func (q *SliceQueue) Take(n int) []float64 {
	if n < 0 || n > q.Len() {
		panic(tapeFault{op: "take", detail: fmt.Sprintf("take(%d) with %d items buffered", n, q.Len())})
	}
	out := make([]float64, n)
	copy(out, q.buf[q.head:q.head+n])
	q.head += n
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return out
}

// Compact drops consumed items from the front of the backing array. The
// mapped engine calls it at iteration boundaries on its worker-local
// queues, where per-item Push/Pop traffic never passes through Append's
// occasional compaction.
func (q *SliceQueue) Compact() {
	if q.head == 0 {
		return
	}
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
