package exec

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamit/internal/wfunc"
)

// abortLinks is what the mapped engine's abort does to its links: raise the
// halted flag, then leave a wake token on both sides of each.
func abortLinks(halted *atomic.Bool, links ...*link) {
	halted.Store(true)
	for _, l := range links {
		l.feed(sideSend)
		l.feed(sideRecv)
	}
}

// TestLinkMovesBatchesInOrder runs one producer and one consumer goroutine
// over a link at depths 1–3, moving batches of random sizes (empty ones
// included) through the same send/recv/wait calls the mapped engine makes.
// Every batch arrives whole and in order, and neither side ever sees more
// than depth slots published.
func TestLinkMovesBatchesInOrder(t *testing.T) {
	const batches = 2000
	for depth := 1; depth <= 3; depth++ {
		rng := newRand(int64(depth))
		sizes := make([]int, batches)
		for i := range sizes {
			sizes[i] = rng.Intn(40)
		}
		var halted atomic.Bool
		l := newLink(depth, &halted)
		over := func() bool { return l.tail.Load()-l.head.Load() > uint64(depth) }
		var wg sync.WaitGroup
		var prodErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			stage, v := wfunc.NewRing(0), 0.0
			for _, n := range sizes {
				for j := 0; j < n; j++ {
					stage.Push(v)
					v++
				}
				if !l.ready(sideSend) {
					if prodErr = l.wait(sideSend); prodErr != nil {
						return
					}
				}
				l.send(stage, n)
				if over() {
					prodErr = errStopped
					return
				}
			}
		}()
		q, want := wfunc.NewRing(0), 0.0
		for i, n := range sizes {
			if !l.ready(sideRecv) {
				if err := l.wait(sideRecv); err != nil {
					t.Fatalf("depth %d batch %d: recv: %v", depth, i, err)
				}
			}
			if over() {
				t.Fatalf("depth %d batch %d: %d slots published, depth is %d", depth, i, l.tail.Load()-l.head.Load(), depth)
			}
			l.recv(q)
			if q.Len() != n {
				t.Fatalf("depth %d batch %d: got %d items, want %d", depth, i, q.Len(), n)
			}
			for q.Len() > 0 {
				if got := q.Pop(); got != want {
					t.Fatalf("depth %d batch %d: got item %v, want %v", depth, i, got, want)
				}
				want++
			}
		}
		wg.Wait()
		if prodErr != nil {
			t.Fatalf("depth %d: producer: %v (or occupancy over depth)", depth, prodErr)
		}
		if l.ready(sideRecv) {
			t.Fatalf("depth %d: link not empty after the last batch", depth)
		}
	}
}

// TestLinkAbortUnwindsParkedSides parks both sides at once — a producer on
// a full link, a consumer on an empty one, the two ends of a cross-worker
// wait cycle — and aborts. Both return errStopped promptly, a wait after
// the abort returns it without blocking, and a reset leaves each link empty
// and working once the engine's halted flag is cleared.
func TestLinkAbortUnwindsParkedSides(t *testing.T) {
	for depth := 1; depth <= 3; depth++ {
		var halted atomic.Bool
		full, empty := newLink(depth, &halted), newLink(depth, &halted)
		stage := wfunc.NewRing(0)
		for i := 0; i < depth; i++ {
			stage.Push(float64(i))
			full.send(stage, 1)
		}
		errs := make(chan error, 2)
		go func() { errs <- full.wait(sideSend) }()
		go func() { errs <- empty.wait(sideRecv) }()
		for deadline := time.Now().Add(5 * time.Second); !full.waiting[sideSend].Load() || !empty.waiting[sideRecv].Load(); {
			if time.Now().After(deadline) {
				t.Fatalf("depth %d: the two sides never parked", depth)
			}
			time.Sleep(time.Millisecond)
		}
		abortLinks(&halted, full, empty)
		for i := 0; i < 2; i++ {
			select {
			case err := <-errs:
				if err != errStopped {
					t.Fatalf("depth %d: parked side returned %v, want errStopped", depth, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("depth %d: a parked side did not unwind after the abort", depth)
			}
		}
		if err := empty.wait(sideRecv); err != errStopped {
			t.Fatalf("depth %d: wait after the abort returned %v, want errStopped", depth, err)
		}

		halted.Store(false)
		for _, l := range []*link{full, empty} {
			l.reset()
			if l.ready(sideRecv) || !l.ready(sideSend) {
				t.Fatalf("depth %d: link not empty after reset", depth)
			}
			stage.Push(7)
			stage.Push(8)
			l.send(stage, 2)
			q := wfunc.NewRing(0)
			l.recv(q)
			if q.Len() != 2 || q.Pop() != 7 || q.Pop() != 8 || l.ready(sideRecv) {
				t.Fatalf("depth %d: a batch sent after reset did not arrive alone and whole", depth)
			}
		}
	}
}
