package dist

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"streamit/internal/exec"
	"streamit/internal/faults"
	"streamit/internal/ir"
	"streamit/internal/partition"
)

// ShardOptions configure one shard worker.
type ShardOptions struct {
	// Name is the shard's display name in coordinator logs.
	Name string
	// Registry resolves job app names (default SuiteRegistry).
	Registry map[string]func() *ir.Program
	// DataAddr is the listen address for peer data links (default
	// "127.0.0.1:0").
	DataAddr string
	// Heartbeat is the liveness interval (default 100ms).
	Heartbeat time.Duration
	// WriteTimeout bounds every blocking network write (default 10s).
	WriteTimeout time.Duration
	// JoinTimeout bounds the coordinator dial, with backoff and jitter
	// (default 30s).
	JoinTimeout time.Duration
	// LinkTimeout bounds one generation's peer-link establishment
	// (default 10s).
	LinkTimeout time.Duration
	// CrashFn is what an injected crash fault does after the shard severs
	// its connections. The default exits the process with status 137 —
	// indistinguishable from kill -9. In-process tests install a no-op.
	CrashFn func()
	// Log receives shard progress notes (default: standard logger).
	Log func(format string, args ...any)
}

func (o *ShardOptions) defaults() {
	if o.Registry == nil {
		o.Registry = SuiteRegistry()
	}
	if o.DataAddr == "" {
		o.DataAddr = "127.0.0.1:0"
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 100 * time.Millisecond
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.JoinTimeout <= 0 {
		o.JoinTimeout = 30 * time.Second
	}
	if o.LinkTimeout <= 0 {
		o.LinkTimeout = 10 * time.Second
	}
	if o.CrashFn == nil {
		o.CrashFn = func() { os.Exit(137) }
	}
	if o.Log == nil {
		o.Log = log.Printf
	}
}

// errWedged marks an epoch that ended because an injected stall or
// partition fault wedged it (and teardown later unblocked it); the
// generation is discarded quietly.
var errWedged = errors.New("dist: epoch wedged by injected fault")

// errTorn voids an epoch whose engine returned after its link set tore
// down: batches it published may never have shipped.
var errTorn = errors.New("dist: link set torn down during the epoch")

// generation is one installed topology on a shard: the sharded engine,
// its data links, and the sink-capture buffers.
type generation struct {
	gen   uint32
	live  []uint32 // stable shard IDs by live index
	myIdx int
	eng   *exec.MappedEngine
	links *linkSet
	sinks map[int]*sinkBuf // g2 node ID → capture buffer
}

// sinkBuf captures one locally-owned sink's input stream during an epoch.
type sinkBuf struct {
	items []float64
}

// shard is one worker process of a distributed run.
type shard struct {
	opts    ShardOptions
	fc      *fconn
	ln      net.Listener
	job     *jobMsg
	jp      *jobPlan
	pending []faults.ShardFault // this shard's unconsumed injected faults
	// cuts holds every shard's faults, consumed or not: each engine cuts
	// its blocks at them, so blocks match across every boundary.
	cuts *faults.Plan

	curMu   atomic.Pointer[generation] // read by the acceptor and heartbeat goroutines
	hbPause atomic.Bool
	quit    chan struct{}

	epochDone    chan error
	epochRunning bool
	aborting     bool
	abortToken   uint32
}

// Join connects to a coordinator, compiles the job it receives (verifying
// the graph fingerprint), and serves generations until the coordinator
// says bye or the connection dies. It is the shard worker's whole
// lifetime: streamit-run's --join mode is a Join call.
func Join(coordAddr string, opts ShardOptions) error {
	opts.defaults()
	c, err := dialRetry(coordAddr, opts.JoinTimeout)
	if err != nil {
		return err
	}
	sh := &shard{
		opts:      opts,
		fc:        newFConn(c, opts.WriteTimeout),
		quit:      make(chan struct{}),
		epochDone: make(chan error, 1),
	}
	defer sh.fc.close()
	defer close(sh.quit)
	defer func() {
		if g := sh.curMu.Load(); g != nil {
			g.links.teardown()
		}
	}()

	sh.ln, err = net.Listen("tcp", opts.DataAddr)
	if err != nil {
		return err
	}
	defer sh.ln.Close()

	if err := sh.handshake(); err != nil {
		return err
	}
	go sh.acceptLoop()
	go sh.heartbeatLoop()
	return sh.serve()
}

// handshake sends hello, receives and compiles the job, and verifies the
// fingerprint.
func (sh *shard) handshake() error {
	hello := &helloMsg{Proto: protoVersion, Name: sh.opts.Name, DataAddr: sh.ln.Addr().String()}
	if err := sh.fc.send(mtHello, hello.encode()); err != nil {
		return err
	}
	t, p, err := sh.fc.recv(sh.opts.JoinTimeout)
	if err != nil {
		return fmt.Errorf("dist: waiting for job: %w", err)
	}
	if t != mtJob {
		return fmt.Errorf("dist: expected job, got %s", t)
	}
	if sh.job, err = decodeJob(p); err != nil {
		return err
	}
	prog, err := buildProgram(Spec{App: sh.job.App, Source: sh.job.Source, Top: sh.job.Top}, sh.opts.Registry)
	if err != nil {
		sh.fc.send(mtError, (&textMsg{Text: err.Error()}).encode())
		return err
	}
	jp, err := buildJobPlan(prog, partition.Strategy(sh.job.Strategy), int(sh.job.Shards)*int(sh.job.PerShard))
	if err != nil {
		sh.fc.send(mtError, (&textMsg{Text: err.Error()}).encode())
		return err
	}
	if jp.fp != sh.job.Fingerprint {
		err := fmt.Errorf("dist: local graph fingerprint %#x does not match the coordinator's %#x — build skew",
			jp.fp, sh.job.Fingerprint)
		sh.fc.send(mtError, (&textMsg{Code: jp.fp, Text: err.Error()}).encode())
		return err
	}
	sh.jp = jp
	if sh.job.Faults != "" {
		plan, err := faults.ParsePlan(sh.job.Faults)
		if err != nil {
			sh.fc.send(mtError, (&textMsg{Text: err.Error()}).encode())
			return err
		}
		// Only shard faults aimed at this shard's stable ID fire here;
		// filter- and worker-level faults are single-process concerns.
		sh.cuts = &faults.Plan{ShardFaults: plan.ShardFaults}
		for _, f := range plan.ShardFaults {
			if f.Shard == int(sh.job.ShardID) {
				sh.pending = append(sh.pending, f)
			}
		}
	}
	return sh.fc.send(mtJobOK, (&textMsg{Code: jp.fp}).encode())
}

// acceptLoop serves the data listener: every inbound peer connection
// identifies itself with a linkHello, and is handed to the current
// generation's linkSet — or closed if the named generation is not (yet)
// installed. The dialer retries, so a close during an install race is
// recoverable by design.
func (sh *shard) acceptLoop() {
	for {
		c, err := sh.ln.Accept()
		if err != nil {
			return // listener closed: shard is exiting
		}
		go sh.acceptLink(c)
	}
}

func (sh *shard) acceptLink(c net.Conn) {
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReaderSize(c, 64<<10)
	t, p, err := readFrame(r)
	if err != nil || t != mtLinkHello {
		c.Close()
		return
	}
	m, err := decodeLinkHello(p)
	if err != nil {
		c.Close()
		return
	}
	g := sh.curMu.Load()
	if g == nil || g.links.gen != m.Gen || !g.links.expectsAccept(int(m.From)) {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	if !g.links.offer(int(m.From), c, r) {
		c.Close()
		return
	}
	// Ack after the handoff: the dialer proceeds only once its conn is
	// actually registered. A failed ack write just dies with the conn.
	c.SetWriteDeadline(time.Now().Add(sh.opts.WriteTimeout))
	writeFrame(c, mtLinkHello, (&linkHelloMsg{From: uint32(g.myIdx), Gen: m.Gen}).encode())
	c.SetWriteDeadline(time.Time{})
}

// heartbeatLoop reports liveness plus the set of shards local nodes are
// blocked on across a boundary link (the coordinator's wait-graph input),
// read from the engine's wait states. A partition fault pauses it without
// stopping the shard.
func (sh *shard) heartbeatLoop() {
	t := time.NewTicker(sh.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-sh.quit:
			return
		case <-t.C:
		}
		if sh.hbPause.Load() {
			continue
		}
		var waits []uint32
		if g := sh.curMu.Load(); g != nil {
			for _, w := range g.eng.WaitingOn() {
				if id := g.live[w/int(sh.job.PerShard)]; !slices.Contains(waits, id) {
					waits = append(waits, id)
				}
			}
		}
		// Best-effort: a dead control conn surfaces in the serve loop.
		sh.fc.send(mtHeartbeat, (&beatMsg{WaitingOn: waits}).encode())
	}
}

type ctrlEv struct {
	t   msgType
	p   []byte
	err error
}

// serve is the control loop: reads coordinator messages off a reader
// goroutine and epoch completions off the epoch goroutine.
func (sh *shard) serve() error {
	ctrl := make(chan ctrlEv, 8)
	go func() {
		for {
			t, p, err := sh.fc.recv(0)
			ev := ctrlEv{t, p, err}
			select {
			case ctrl <- ev:
			case <-sh.quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	for {
		select {
		case ev := <-ctrl:
			if ev.err != nil {
				return fmt.Errorf("dist: coordinator connection: %w", ev.err)
			}
			switch ev.t {
			case mtAssign:
				if err := sh.handleAssign(ev.p); err != nil {
					return err
				}
			case mtRun:
				if err := sh.handleRun(ev.p); err != nil {
					return err
				}
			case mtAbort:
				if err := sh.handleAbort(ev.p); err != nil {
					return err
				}
			case mtBye:
				sh.destroyGen()
				return nil
			default:
				return fmt.Errorf("dist: unexpected %s frame on the control connection", ev.t)
			}
		case err := <-sh.epochDone:
			if err2 := sh.finishEpoch(err); err2 != nil {
				return err2
			}
		}
	}
}

// handleAssign installs one generation: build the sharded engine over the
// job's graph, restore the barrier image (or replay initialization),
// connect the peer links, and report ready. Local build failures are
// reported as errors; link failures stay quiet — they are almost always
// another shard's death, which the coordinator detects on its own and
// resolves with a new generation.
func (sh *shard) handleAssign(p []byte) error {
	m, err := decodeAssign(p)
	if err != nil {
		return err
	}
	sh.destroyGen() // the coordinator aborts before reassigning, but be safe
	myIdx := -1
	for i, id := range m.LiveShards {
		if id == sh.job.ShardID {
			myIdx = i
		}
	}
	if myIdx < 0 {
		return fmt.Errorf("dist: assign for generation %d does not include this shard", m.Gen)
	}
	if len(m.Peers) != len(m.LiveShards) {
		return fmt.Errorf("dist: assign lists %d peers for %d shards", len(m.Peers), len(m.LiveShards))
	}
	perShard := int(sh.job.PerShard)
	workers := len(m.LiveShards) * perShard
	assign := make([]int, len(m.Assign))
	local := make([]bool, workers)
	for i, w := range m.Assign {
		assign[i] = int(w)
	}
	for w := range local {
		local[w] = w/perShard == myIdx
	}
	eng, err := exec.NewMappedOpts(sh.jp.g2, sh.jp.s2, assign, workers, exec.Options{
		Backend:      exec.Backend(sh.job.Backend),
		QueueDepth:   int(sh.job.QueueDepth),
		Watchdog:     -1, // blocking on a remote peer is not a deadlock
		LocalWorkers: local,
		Faults:       sh.cuts,
	})
	if err != nil {
		sh.fc.send(mtError, (&textMsg{Text: err.Error()}).encode())
		return nil
	}
	links := newLinkSet(eng, sh.jp.g2, assign, perShard, myIdx, m.Gen, sh.opts.WriteTimeout)
	g := &generation{gen: m.Gen, live: m.LiveShards, myIdx: myIdx, eng: eng, links: links}
	if sh.job.TapSinks {
		if g.sinks, err = tapSinks(eng, sh.jp.g2, assign, local); err != nil {
			sh.fc.send(mtError, (&textMsg{Text: err.Error()}).encode())
			return nil
		}
	}
	if len(m.Image) > 0 {
		_, err = eng.RestoreCheckpoint(m.Image)
	} else {
		err = eng.Prepare()
	}
	if err != nil {
		sh.fc.send(mtError, (&textMsg{Text: err.Error()}).encode())
		return nil
	}
	// Publish before connecting: peers dial this shard's acceptor, which
	// routes by the current generation.
	sh.curMu.Store(g)
	peers := make([]string, len(m.Peers))
	copy(peers, m.Peers)
	if err := links.connect(peers, sh.opts.LinkTimeout); err != nil {
		sh.opts.Log("dist shard %d: generation %d links failed: %v", sh.job.ShardID, m.Gen, err)
		sh.destroyGen()
		return nil
	}
	return sh.fc.send(mtReady, (&genMsg{Gen: m.Gen}).encode())
}

// tapSinks taps every locally-owned sink filter to capture its input
// stream. The sink still runs its own kernel, so its state, and the image
// it leaves, are those of an untapped run.
func tapSinks(eng *exec.MappedEngine, g2 *ir.Graph, assign []int, local []bool) (map[int]*sinkBuf, error) {
	sinks := make(map[int]*sinkBuf)
	for _, n := range g2.Nodes {
		if n.Kind != ir.NodeFilter || !n.IsSink() || n.IsSource() {
			continue
		}
		if !local[assign[n.ID]] {
			continue
		}
		buf := &sinkBuf{}
		if err := eng.TapSink(n.Name, func(v float64) { buf.items = append(buf.items, v) }); err != nil {
			return nil, fmt.Errorf("dist: tap sink %s: %w", n.Name, err)
		}
		sinks[n.ID] = buf
	}
	return sinks, nil
}

// handleRun starts one epoch on the current generation.
func (sh *shard) handleRun(p []byte) error {
	m, err := decodeGen(p)
	if err != nil {
		return err
	}
	g := sh.curMu.Load()
	if g == nil || g.gen != m.Gen || sh.epochRunning {
		// A stale run that crossed an abort in flight; the coordinator's
		// new generation supersedes it.
		return nil
	}
	sh.epochRunning = true
	go func() {
		sh.epochDone <- sh.runEpoch(g, int(m.Iters))
	}()
	return nil
}

// runEpoch drives the engine through one epoch, splitting it at injected
// shard-fault iterations.
func (sh *shard) runEpoch(g *generation, n int) error {
	start := g.eng.Iteration()
	end := start + int64(n)
	for start < end {
		f := sh.takeFault(start, end)
		if f == nil {
			if err := g.eng.StepEpoch(int(end - start)); err != nil {
				return err
			}
			return nil
		}
		if pre := int(f.Iter - start); pre > 0 {
			if err := g.eng.StepEpoch(pre); err != nil {
				return err
			}
			start = f.Iter
		}
		return sh.fire(g, *f)
	}
	return nil
}

// takeFault consumes the earliest pending shard fault in [start, end).
// Consumption is permanent: after a rollback the same iteration replays
// without re-firing the fault, so recovery converges.
func (sh *shard) takeFault(start, end int64) *faults.ShardFault {
	best := -1
	for i, f := range sh.pending {
		if f.Iter >= start && f.Iter < end && (best < 0 || f.Iter < sh.pending[best].Iter) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	f := sh.pending[best]
	sh.pending = append(sh.pending[:best], sh.pending[best+1:]...)
	return &f
}

// fire executes one injected shard fault at an iteration boundary.
func (sh *shard) fire(g *generation, f faults.ShardFault) error {
	sh.opts.Log("dist shard %d: firing injected %s at iteration %d", sh.job.ShardID, f.Kind, f.Iter)
	switch f.Kind {
	case faults.Crash:
		// Sever everything abruptly — no abort protocol, no flush — then
		// run the crash hook (default: exit 137, like kill -9).
		sh.fc.close()
		sh.ln.Close()
		g.links.teardown()
		sh.opts.CrashFn()
	case faults.Partition:
		// Silence heartbeats; the epoch wedges below. The coordinator
		// sees a live TCP connection but no liveness — heartbeat loss.
		sh.hbPause.Store(true)
	case faults.Stall:
		// Keep heartbeats; just never reach the barrier. Only the
		// wait-graph can tell this shard from the peers it starves.
	}
	select {
	case <-sh.quit:
	case <-g.links.down:
	}
	return errWedged
}

// finishEpoch handles an epoch goroutine's completion on the serve loop.
func (sh *shard) finishEpoch(err error) error {
	sh.epochRunning = false
	g := sh.curMu.Load()
	if sh.aborting {
		sh.aborting = false
		sh.destroyGen()
		return sh.fc.send(mtAborted, (&genMsg{Gen: sh.abortToken}).encode())
	}
	if g == nil {
		return nil
	}
	if err != nil || g.links.torn() {
		// Quiet failures: an injected wedge, or a torn-down link set — a
		// deliberate teardown, or a transport error whose root cause is a
		// peer the coordinator will detect itself. A teardown voids the
		// epoch even if the engine returned (errTorn). Anything else is this
		// shard's own fault — say so.
		quiet := errors.Is(err, errWedged) || g.links.torn()
		err = cmp.Or(g.links.failure(), err, errTorn)
		sh.opts.Log("dist shard %d: generation %d epoch failed: %v", sh.job.ShardID, g.gen, err)
		sh.destroyGen()
		if !quiet {
			return sh.fc.send(mtError, (&textMsg{Text: err.Error()}).encode())
		}
		return nil
	}
	st, err := g.eng.ExportShard()
	if err != nil {
		sh.destroyGen()
		return sh.fc.send(mtError, (&textMsg{Text: err.Error()}).encode())
	}
	var chunks []sinkChunk
	for id, buf := range g.sinks {
		chunks = append(chunks, sinkChunk{Node: uint32(id), Items: buf.items})
		buf.items = nil
	}
	bar := &barrierMsg{Gen: g.gen, Iter: g.eng.Iteration(), State: st, Sinks: chunks}
	return sh.fc.send(mtBarrier, bar.encode())
}

// handleAbort tears down the current generation. If an epoch is running
// the links unblock it first; the aborted ack goes out once it unwinds.
func (sh *shard) handleAbort(p []byte) error {
	m, err := decodeText(p)
	if err != nil {
		return err
	}
	sh.abortToken = uint32(m.Code)
	if sh.epochRunning {
		sh.aborting = true
		if g := sh.curMu.Load(); g != nil {
			g.links.teardown()
		}
		return nil
	}
	sh.destroyGen()
	return sh.fc.send(mtAborted, (&genMsg{Gen: sh.abortToken}).encode())
}

// destroyGen tears down and forgets the current generation.
func (sh *shard) destroyGen() {
	if g := sh.curMu.Load(); g != nil {
		g.links.teardown()
		sh.curMu.Store((*generation)(nil))
	}
}
