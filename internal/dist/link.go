package dist

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"streamit/internal/exec"
	"streamit/internal/ir"
)

// The data plane. A shard's engine carries every cross-worker edge on one
// transport, an exec link; on a shard-boundary edge the link's far side
// is a pump of this file instead of a worker. Each unordered pair of live
// shards that shares at least one boundary edge holds exactly one TCP
// connection, carrying batch frames in both directions. The pair's writer
// drains the local producers' published slots into mtBatch frames
// numbered per edge (MappedEngine.DrainBoundary); the pair's reader checks
// each frame's edge and sequence and fills the local consumer's link from
// it (MappedEngine.FillBoundary). Backpressure is the links' depth plus
// the sockets' buffers. The lower live index dials the higher one's data
// listener; the dialer identifies itself with a linkHello naming the
// generation, and retries (the acceptor may not have installed the
// generation yet) until acked. A teardown (abort or peer failure) closes
// the connections and aborts the engine, so every worker and pump blocked
// on a link unwinds.

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
	out  []int          // out-edge IDs the peer consumes, producers in topological order
	next map[int]uint64 // in-edge ID → next expected sequence; the reader's alone
}

// linkSet is one generation's data plane on one shard: the pumps at the
// far side of its engine's boundary links.
type linkSet struct {
	gen     uint32
	myIdx   int
	wto     time.Duration
	eng     *exec.MappedEngine
	peers   map[int]*peerLink
	waiting map[int]chan acceptedConn // peer index → inbound-conn handoff

	down  chan struct{}
	once  sync.Once
	errMu sync.Mutex
	err   error
}

// newLinkSet classifies the generation's edges against the assignment:
// edges whose producer and consumer land on different shards cross the
// boundary, and each peer across one gets one link. Worker w runs on shard
// w/perShard, matching partition.Topology's numbering.
func newLinkSet(eng *exec.MappedEngine, g2 *ir.Graph, assign []int, perShard, myIdx int, gen uint32, wto time.Duration) *linkSet {
	ls := &linkSet{
		gen:     gen,
		myIdx:   myIdx,
		wto:     wto,
		eng:     eng,
		peers:   make(map[int]*peerLink),
		waiting: make(map[int]chan acceptedConn),
		down:    make(chan struct{}),
	}
	peer := func(idx int) *peerLink {
		pl := ls.peers[idx]
		if pl == nil {
			pl = &peerLink{idx: idx, next: make(map[int]uint64)}
			ls.peers[idx] = pl
			if myIdx > idx {
				ls.waiting[idx] = make(chan acceptedConn, 1)
			}
		}
		return pl
	}
	topo, _ := g2.TopoOrder() // the engine ordered the same graph
	for _, n := range topo {
		for _, e := range n.Out {
			if e == nil {
				continue
			}
			si, di := assign[e.Src.ID]/perShard, assign[e.Dst.ID]/perShard
			switch {
			case si == di:
			case si == myIdx:
				pl := peer(di)
				pl.out = append(pl.out, e.ID)
			case di == myIdx:
				peer(si).next[e.ID] = 0
			}
		}
	}
	return ls
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
// for the acceptor otherwise — then starts the pumps. On any failure the
// whole set tears down.
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
	ls.start()
	return nil
}

// start runs every established peer's pumps: its reader, and its writer
// if the peer consumes any edge. They return once the set tears down.
func (ls *linkSet) start() {
	for _, pl := range ls.peers {
		go ls.reader(pl)
		if len(pl.out) > 0 {
			go ls.writer(pl)
		}
	}
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

// reader drains one peer connection into the local consumers' links,
// verifying that the peer feeds each batch's edge and the per-edge
// sequence. A link it fills stays full until its consumer moves, which
// holds back the pair's later frames, and through the socket the writers.
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
		want, ok := pl.next[edge]
		if !ok {
			ls.fail(fmt.Errorf("dist: peer %d sent batch for edge %d it does not feed", pl.idx, edge))
			return
		}
		if m.Seq != want {
			ls.fail(fmt.Errorf("dist: edge %d batch out of sequence: got %d, want %d", edge, m.Seq, want))
			return
		}
		pl.next[edge] = want + 1
		if ls.eng.FillBoundary(edge, m.Items) != nil {
			return
		}
	}
}

// writer ships the batches of every out-edge the peer consumes, one frame
// each under a write deadline, in rounds: one batch per edge — a lockstep
// shard's edges carry one a cycle — in the producers' topological order.
// A batch depends only on batches of earlier rounds and of its producer's
// ancestors, all ahead of it on the wire, so the peer's reader never holds
// a frame its consumer cannot take while the one it waits for sits behind
// it. The writer returns once the engine halts or the connection fails.
func (ls *linkSet) writer(pl *peerLink) {
	for seq := uint64(0); ; seq++ {
		for _, edge := range pl.out {
			err := ls.eng.DrainBoundary(edge, func(items []float64) error {
				pl.conn.SetWriteDeadline(time.Now().Add(ls.wto))
				err := writeFrame(pl.conn, mtBatch, (&batchMsg{Edge: uint32(edge), Seq: seq, Items: items}).encode())
				if err != nil {
					ls.fail(fmt.Errorf("dist: send to peer %d: %w", pl.idx, err))
				}
				return err
			})
			if err != nil {
				return
			}
		}
	}
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

// torn reports whether the set has torn down.
func (ls *linkSet) torn() bool {
	select {
	case <-ls.down:
		return true
	default:
		return false
	}
}

// teardown closes the down channel and every peer connection and aborts
// the engine, unwinding every blocked worker and pump. Idempotent.
func (ls *linkSet) teardown() {
	ls.once.Do(func() {
		close(ls.down)
		ls.eng.Abort()
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
