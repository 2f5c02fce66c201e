package exec

import "sync/atomic"

// link is a cross-worker edge inside one process: a single-producer
// single-consumer ring of batch slots, each owning its storage. The
// producer fills the slot at tail in place and publishes it by advancing
// tail; the consumer appends the slot at head to its ring and releases it
// by advancing head. A side that can move touches only these atomics.
//
// A side that cannot — a full ring to send into, an empty one to receive
// from — raises its waiting flag, re-checks, and blocks on its one-token
// wake channel, which the other side feeds after its next move if the flag
// is up. sync/atomic is sequentially consistent, so either the waiter sees
// the move or the mover sees the flag. An abort raises halted and feeds
// both sides of every link.
type link struct {
	slots      [][]float64
	head, tail atomic.Uint64 // slots released, slots published
	waiting    [2]atomic.Bool
	wake       [2]chan struct{}
	halted     *atomic.Bool // the engine's abort flag
}

// The two sides of a link.
const (
	sideSend = iota
	sideRecv
)

// newLink builds an empty link of depth slots; each grows to its edge's
// batch size on first use and keeps that storage.
func newLink(depth int, halted *atomic.Bool) *link {
	return &link{slots: make([][]float64, depth), halted: halted,
		wake: [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}}
}

// ready reports whether side s can move: a free slot to fill, or a
// published one to empty.
func (l *link) ready(s int) bool {
	n := l.tail.Load() - l.head.Load()
	return s == sideSend && n < uint64(len(l.slots)) || s == sideRecv && n > 0
}

// wait blocks side s until it is ready, or returns errStopped once the
// engine halts. A stale token costs one more pass of the loop.
func (l *link) wait(s int) error {
	for !l.halted.Load() {
		l.waiting[s].Store(true)
		if l.ready(s) {
			l.waiting[s].Store(false)
			return nil
		}
		<-l.wake[s]
	}
	return errStopped
}

// feed leaves side s a wake token unless one is already there.
func (l *link) feed(s int) {
	select {
	case l.wake[s] <- struct{}{}:
	default:
	}
}

// send fills the free slot at tail with exactly k items taken from stage
// (Take's rate check) and publishes it. The side must be ready.
func (l *link) send(stage *channel, k int) {
	slot := &l.slots[l.tail.Load()%uint64(len(l.slots))]
	*slot = stage.Take(*slot, k)
	if l.tail.Add(1); l.waiting[sideRecv].CompareAndSwap(true, false) {
		l.feed(sideRecv)
	}
}

// recv appends the oldest published slot to q and releases it. The side
// must be ready.
func (l *link) recv(q *channel) {
	q.Append(l.slots[l.head.Load()%uint64(len(l.slots))])
	if l.head.Add(1); l.waiting[sideSend].CompareAndSwap(true, false) {
		l.feed(sideSend)
	}
}

// reset empties the link at a barrier, dropping what an aborted epoch left
// in it. A wake token or waiting flag left over costs one spurious wake.
func (l *link) reset() { l.head.Store(l.tail.Load()) }
