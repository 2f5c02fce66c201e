package exec

import (
	"sync/atomic"

	"streamit/internal/wfunc"
)

// link is a cross-worker edge: a single-producer single-consumer ring of
// batch slots, each owning its storage. Each side has a position, the
// slots it has passed: the producer fills the slot at its position in
// place and publishes it by advancing; the consumer appends the slot at
// its position to its ring and releases it by advancing. A side that can
// move touches only these atomics. On a shard-boundary edge one side is a
// socket pump instead of a worker (mapped_dist.go).
//
// A side that cannot — a full ring to send into, an empty one to receive
// from — raises its waiting flag, re-checks, and blocks on its one-token
// wake channel, which the other side feeds after its next move if the flag
// is up. sync/atomic is sequentially consistent, so either the waiter sees
// the move or the mover sees the flag. An abort raises halted and feeds
// both sides of every link.
type link struct {
	slots   [][]float64
	pos     [2]atomic.Uint64 // per side: slots published, slots released
	waiting [2]atomic.Bool
	wake    [2]chan struct{}
	halted  *atomic.Bool // the engine's abort flag
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
	n := l.pos[sideSend].Load() - l.pos[sideRecv].Load()
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

// slot is the storage of the slot at side s's position.
func (l *link) slot(s int) *[]float64 { return &l.slots[l.pos[s].Load()%uint64(len(l.slots))] }

// advance moves side s past its slot, filled or emptied, and wakes the
// other side if it waits.
func (l *link) advance(s int) {
	if l.pos[s].Add(1); l.waiting[1-s].CompareAndSwap(true, false) {
		l.feed(1 - s)
	}
}

// send fills the free slot with exactly k items taken from stage (Take's
// rate check) and publishes it. The side must be ready.
func (l *link) send(stage *wfunc.Ring, k int) {
	s := l.slot(sideSend)
	*s = stage.Take(*s, k)
	l.advance(sideSend)
}

// recv appends the oldest published slot to q and releases it. The side
// must be ready.
func (l *link) recv(q *wfunc.Ring) {
	q.Append(*l.slot(sideRecv))
	l.advance(sideRecv)
}

// reset empties the link at a barrier, dropping what an aborted epoch left
// in it. A wake token or waiting flag left over costs one spurious wake.
func (l *link) reset() { l.pos[sideRecv].Store(l.pos[sideSend].Load()) }
