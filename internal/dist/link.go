package dist

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streamit/internal/exec"
	"streamit/internal/ir"
)

// The data plane: each unordered pair of live shards that shares at least
// one cross-shard edge holds exactly one TCP connection, carrying batch
// frames in both directions. The lower live index dials the higher one's
// data listener; the dialer identifies itself with a linkHello naming the
// generation, and retries (the acceptor may not have installed the
// generation yet) until acked. Batches multiplex over the pair's
// connection by edge ID with a per-edge sequence number, landing in
// per-edge inboxes whose capacity mirrors the engine's queue depth — the
// same backpressure bound as the in-memory channels they replace. A
// teardown (abort or peer failure) closes the down channel so every
// worker blocked in Send/Recv unwinds immediately.

// acceptedConn hands an inbound peer connection (and the buffered reader
// that already consumed its linkHello) from the shard's acceptor to the
// generation's linkSet.
type acceptedConn struct {
	c net.Conn
	r *bufio.Reader
}

// peerLink is the single bidirectional connection to one live peer.
type peerLink struct {
	idx  int
	conn net.Conn
	r    *bufio.Reader
	wmu  sync.Mutex
	seq  map[int]uint64 // per out-edge send sequence, guarded by wmu
}

// linkSet is one generation's data plane on one shard. It implements the
// engine's RemoteHooks: Send ships a local producer's batch to the
// consuming peer, Recv delivers a remote producer's batch to a local
// consumer.
type linkSet struct {
	gen     uint32
	myIdx   int
	wto     time.Duration
	peers   map[int]*peerLink
	outPeer map[int]*peerLink         // out-edge ID → carrying link
	inbox   map[int]chan []float64    // in-edge ID → delivery channel
	inPeer  map[int]int               // in-edge ID → producing peer index
	expSeq  map[int]*uint64           // in-edge ID → next expected sequence
	waiting map[int]chan acceptedConn // peer index → inbound-conn handoff
	blocked []atomic.Int32            // per live index: Recvs blocked on that peer

	down  chan struct{}
	once  sync.Once
	errMu sync.Mutex
	err   error
}

// newLinkSet classifies the generation's edges against the assignment:
// edges whose producer and consumer land on different shards become
// remote, and each remote peer gets one link. Worker w runs on shard
// w/perShard, matching partition.Topology's numbering.
func newLinkSet(g2 *ir.Graph, assign []int, perShard, myIdx, liveCount int, gen uint32, depth int, wto time.Duration) *linkSet {
	ls := &linkSet{
		gen:     gen,
		myIdx:   myIdx,
		wto:     wto,
		peers:   make(map[int]*peerLink),
		outPeer: make(map[int]*peerLink),
		inbox:   make(map[int]chan []float64),
		inPeer:  make(map[int]int),
		expSeq:  make(map[int]*uint64),
		waiting: make(map[int]chan acceptedConn),
		blocked: make([]atomic.Int32, liveCount),
		down:    make(chan struct{}),
	}
	peer := func(idx int) *peerLink {
		pl := ls.peers[idx]
		if pl == nil {
			pl = &peerLink{idx: idx, seq: make(map[int]uint64)}
			ls.peers[idx] = pl
			if myIdx > idx {
				ls.waiting[idx] = make(chan acceptedConn, 1)
			}
		}
		return pl
	}
	for _, e := range g2.Edges {
		si, di := assign[e.Src.ID]/perShard, assign[e.Dst.ID]/perShard
		if si == di {
			continue
		}
		if si == myIdx {
			ls.outPeer[e.ID] = peer(di)
		}
		if di == myIdx {
			peer(si)
			ls.inbox[e.ID] = make(chan []float64, depth)
			ls.inPeer[e.ID] = si
			ls.expSeq[e.ID] = new(uint64)
		}
	}
	return ls
}

func (ls *linkSet) hooks() *exec.RemoteHooks {
	return &exec.RemoteHooks{Send: ls.Send, Recv: ls.Recv}
}

// expectsAccept reports whether this linkSet is waiting for an inbound
// connection from the given peer.
func (ls *linkSet) expectsAccept(from int) bool { return ls.waiting[from] != nil }

// offer hands an accepted inbound connection to the linkSet. It returns
// false (caller closes the conn) when the peer is unexpected or a
// connection was already delivered.
func (ls *linkSet) offer(from int, c net.Conn, r *bufio.Reader) bool {
	ch := ls.waiting[from]
	if ch == nil {
		return false
	}
	select {
	case ch <- acceptedConn{c, r}:
		return true
	default:
		return false
	}
}

// connect establishes every peer link — dialing lower-index side, waiting
// for the acceptor otherwise — then starts the readers. On any failure
// the whole set tears down.
func (ls *linkSet) connect(peerAddrs []string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	errs := make(chan error, len(ls.peers))
	var wg sync.WaitGroup
	for idx, pl := range ls.peers {
		wg.Add(1)
		go func(idx int, pl *peerLink) {
			defer wg.Done()
			if ls.myIdx < idx {
				errs <- ls.dialPeer(pl, peerAddrs[idx], deadline)
			} else {
				errs <- ls.awaitPeer(pl, deadline)
			}
		}(idx, pl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			ls.teardown()
			return err
		}
	}
	for _, pl := range ls.peers {
		go ls.reader(pl)
	}
	return nil
}

// dialPeer dials a higher-index peer's data listener until the linkHello
// is acked. The acceptor rejects (closes) hellos for generations it has
// not installed yet, so the dialer retries with jittered backoff — the
// normal install race, not an error.
func (ls *linkSet) dialPeer(pl *peerLink, addr string, deadline time.Time) error {
	delay := 10 * time.Millisecond
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return fmt.Errorf("dist: link to peer %d (%s) not established in time", pl.idx, addr)
		}
		if c := ls.tryDial(addr, remaining); c != nil {
			pl.conn = c.c
			pl.r = c.r
			return nil
		}
		select {
		case <-ls.down:
			return fmt.Errorf("dist: link set torn down while dialing peer %d", pl.idx)
		case <-time.After(delay/2 + time.Duration(rand.Int64N(int64(delay)))):
		}
		if delay < 500*time.Millisecond {
			delay *= 2
		}
	}
}

// tryDial makes one dial + hello + ack attempt; nil means retry.
func (ls *linkSet) tryDial(addr string, remaining time.Duration) *acceptedConn {
	attempt := remaining
	if attempt > 2*time.Second {
		attempt = 2 * time.Second
	}
	c, err := net.DialTimeout("tcp", addr, attempt)
	if err != nil {
		return nil
	}
	c.SetWriteDeadline(time.Now().Add(attempt))
	if writeFrame(c, mtLinkHello, (&linkHelloMsg{From: uint32(ls.myIdx), Gen: ls.gen}).encode()) != nil {
		c.Close()
		return nil
	}
	r := bufio.NewReaderSize(c, 64<<10)
	c.SetReadDeadline(time.Now().Add(attempt))
	t, p, err := readFrame(r)
	if err != nil || t != mtLinkHello {
		c.Close()
		return nil
	}
	ack, err := decodeLinkHello(p)
	if err != nil || ack.Gen != ls.gen {
		c.Close()
		return nil
	}
	c.SetReadDeadline(time.Time{})
	c.SetWriteDeadline(time.Time{})
	return &acceptedConn{c, r}
}

func (ls *linkSet) awaitPeer(pl *peerLink, deadline time.Time) error {
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case ac := <-ls.waiting[pl.idx]:
		pl.conn = ac.c
		pl.r = ac.r
		return nil
	case <-ls.down:
		return fmt.Errorf("dist: link set torn down while awaiting peer %d", pl.idx)
	case <-t.C:
		return fmt.Errorf("dist: no link from peer %d in time", pl.idx)
	}
}

// reader drains one peer connection, routing batches to their edge
// inboxes and verifying the per-edge sequence.
func (ls *linkSet) reader(pl *peerLink) {
	for {
		t, p, err := readFrame(pl.r)
		if err != nil {
			ls.fail(fmt.Errorf("dist: link from peer %d: %w", pl.idx, err))
			return
		}
		if t != mtBatch {
			ls.fail(fmt.Errorf("dist: link from peer %d: unexpected %s frame", pl.idx, t))
			return
		}
		m, err := decodeBatch(p)
		if err != nil {
			ls.fail(fmt.Errorf("dist: link from peer %d: %w", pl.idx, err))
			return
		}
		edge := int(m.Edge)
		ch := ls.inbox[edge]
		if ch == nil || ls.inPeer[edge] != pl.idx {
			ls.fail(fmt.Errorf("dist: peer %d sent batch for edge %d it does not feed", pl.idx, edge))
			return
		}
		// expSeq entries are per-edge pointers and each edge has exactly
		// one producing peer, so only this reader touches this counter.
		sp := ls.expSeq[edge]
		if m.Seq != *sp {
			ls.fail(fmt.Errorf("dist: edge %d batch out of sequence: got %d, want %d", edge, m.Seq, *sp))
			return
		}
		*sp++
		select {
		case ch <- m.Items:
		case <-ls.down:
			return
		}
	}
}

// Send ships one local producer batch to the consuming peer
// (exec.RemoteHooks.Send).
func (ls *linkSet) Send(edge int, batch []float64, stop <-chan struct{}) error {
	pl := ls.outPeer[edge]
	if pl == nil {
		return fmt.Errorf("dist: edge %d is not a remote output", edge)
	}
	select {
	case <-ls.down:
		return ls.takeErr()
	case <-stop:
		return exec.ErrRemoteStopped
	default:
	}
	pl.wmu.Lock()
	seq := pl.seq[edge]
	pl.seq[edge] = seq + 1
	pl.conn.SetWriteDeadline(time.Now().Add(ls.wto))
	err := writeFrame(pl.conn, mtBatch, (&batchMsg{Edge: uint32(edge), Seq: seq, Items: batch}).encode())
	pl.wmu.Unlock()
	if err != nil {
		select {
		case <-ls.down:
			return ls.takeErr()
		case <-stop:
			return exec.ErrRemoteStopped
		default:
		}
		err = fmt.Errorf("dist: send to peer %d: %w", pl.idx, err)
		ls.fail(err)
		return err
	}
	return nil
}

// Recv delivers one remote producer batch to a local consumer
// (exec.RemoteHooks.Recv).
func (ls *linkSet) Recv(edge int, stop <-chan struct{}) ([]float64, error) {
	ch := ls.inbox[edge]
	if ch == nil {
		return nil, fmt.Errorf("dist: edge %d is not a remote input", edge)
	}
	select {
	case b := <-ch:
		return b, nil
	default:
	}
	// Record who we are blocked on: the shard's heartbeats report this,
	// and the coordinator's wait-graph uses it to tell a wedged shard
	// from its starved downstream victims.
	src := ls.inPeer[edge]
	ls.blocked[src].Add(1)
	defer ls.blocked[src].Add(-1)
	select {
	case b := <-ch:
		return b, nil
	case <-ls.down:
		return nil, ls.takeErr()
	case <-stop:
		return nil, exec.ErrRemoteStopped
	}
}

// blockedPeers returns the live indices of peers some local worker is
// currently blocked receiving from.
func (ls *linkSet) blockedPeers() []int {
	var out []int
	for i := range ls.blocked {
		if ls.blocked[i].Load() > 0 {
			out = append(out, i)
		}
	}
	return out
}

// fail records the first transport error and tears the set down.
func (ls *linkSet) fail(err error) {
	ls.errMu.Lock()
	if ls.err == nil {
		ls.err = err
	}
	ls.errMu.Unlock()
	ls.teardown()
}

// failure returns the recorded transport error, if any.
func (ls *linkSet) failure() error {
	ls.errMu.Lock()
	defer ls.errMu.Unlock()
	return ls.err
}

// takeErr maps a closed-down linkSet to its cause: the recorded transport
// error, or the quiet stop sentinel for a deliberate teardown.
func (ls *linkSet) takeErr() error {
	if err := ls.failure(); err != nil {
		return err
	}
	return exec.ErrRemoteStopped
}

// teardown closes the down channel and every peer connection, unwinding
// all blocked workers and readers. Idempotent.
func (ls *linkSet) teardown() {
	ls.once.Do(func() {
		close(ls.down)
		for _, pl := range ls.peers {
			if pl.conn != nil {
				pl.conn.Close()
			}
		}
		// Inbound conns delivered but never collected by awaitPeer.
		for _, ch := range ls.waiting {
			select {
			case ac := <-ch:
				ac.c.Close()
			default:
			}
		}
	})
}
