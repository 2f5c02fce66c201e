package dist

import (
	"fmt"
	"log"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/partition"
	"streamit/internal/sched"
)

// Config configures a distributed run.
type Config struct {
	// Shards is the number of worker processes the run starts with.
	Shards int
	// PerShard is the number of engine workers each shard runs
	// (default 2). The initial plan is sized for Shards × PerShard
	// global workers; recovery re-packs the same graph onto the
	// survivors' workers.
	PerShard int
	// Strategy selects the graph rewrite (default task+data). Pipelined
	// strategies are rejected — lockstep epochs are the barrier protocol.
	Strategy partition.Strategy
	// Backend selects the kernel substrate on every shard.
	Backend exec.Backend
	// Epoch is the iterations per coordinated barrier (default 8) — the
	// rollback granularity.
	Epoch int
	// QueueDepth bounds cross-worker and cross-shard buffering in
	// batches (default exec.DefaultQueueDepth).
	QueueDepth int
	// TapSinks makes shards capture sink input streams and ship them at
	// barriers; Result.Outputs collects them per sink.
	TapSinks bool
	// Faults forwards a fault-injection spec to the shards (see
	// faults.ParsePlan); only shard-level targets fire there.
	Faults string
	// Registry resolves Spec.App on the coordinator side (default
	// SuiteRegistry).
	Registry map[string]func() *ir.Program
	// StartImage resumes the run from a previously committed checkpoint
	// image — one written by the sequential engine, the mapped engine, or
	// a prior distributed run's FinalImage — instead of a cold start.
	// StartIter is the steady iteration the image was taken at.
	StartImage []byte
	StartIter  int64
	// Heartbeat is the shard liveness interval (default 100ms);
	// HeartbeatTimeout the staleness bound declaring a shard dead
	// (default 8 × Heartbeat).
	Heartbeat        time.Duration
	HeartbeatTimeout time.Duration
	// EpochTimeout bounds one epoch barrier and one generation install
	// (default 30s). At the deadline the wait-graph from heartbeats
	// picks the wedged shards.
	EpochTimeout time.Duration
	// WriteTimeout bounds every blocking network write (default 10s).
	WriteTimeout time.Duration
	// JoinTimeout bounds the initial shard rendezvous (default 30s).
	JoinTimeout time.Duration
	// OnBarrier, when set, runs after every committed epoch barrier with
	// the committed iteration count — a deterministic hook for tests and
	// progress reporting.
	OnBarrier func(iter int64)
	// Log receives coordinator progress notes (default: standard logger).
	Log func(format string, args ...any)
}

func (c *Config) defaults() error {
	if c.Shards < 1 {
		return fmt.Errorf("dist: %d shards", c.Shards)
	}
	if c.PerShard == 0 {
		c.PerShard = 2
	}
	if c.PerShard < 1 {
		return fmt.Errorf("dist: %d workers per shard", c.PerShard)
	}
	if c.Strategy == "" {
		c.Strategy = partition.StratCoarseData
	}
	if c.Epoch <= 0 {
		c.Epoch = 8
	}
	if c.Registry == nil {
		c.Registry = SuiteRegistry()
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 100 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 8 * c.Heartbeat
	}
	if c.EpochTimeout <= 0 {
		c.EpochTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 30 * time.Second
	}
	if c.Log == nil {
		c.Log = log.Printf
	}
	return nil
}

// Result is what a completed distributed run hands back.
type Result struct {
	// Iterations is the number of committed steady iterations.
	Iterations int64
	// Recoveries counts generation rollbacks forced by shard failures.
	Recoveries int
	// Lost lists the stable IDs of shards removed by failure.
	Lost []int
	// Outputs maps each sink node's name to its captured stream
	// (TapSinks mode), exactly-once across recoveries: chunks commit
	// only with their epoch's barrier.
	Outputs map[string][]float64
	// FinalImage is the last committed barrier image — restorable by a
	// sequential or mapped engine over the same program.
	FinalImage []byte
	// Generations is the number of topologies installed (1 + aborts).
	Generations int
}

// shardConn is the coordinator's handle on one shard worker.
type shardConn struct {
	id       int // stable shard ID
	name     string
	dataAddr string
	fc       *fconn

	lastBeat atomic.Int64 // UnixNano of the last heartbeat
	waitMu   sync.Mutex
	waitsOn  []uint32 // stable IDs from the last heartbeat

	dead       bool // owned by the coordinator loop
	readyGen   uint32
	abortedGen uint32
	barrier    *barrierMsg
}

func (sc *shardConn) String() string {
	if sc.name != "" {
		return fmt.Sprintf("shard %d (%s)", sc.id, sc.name)
	}
	return fmt.Sprintf("shard %d", sc.id)
}

// coEvent is one control-plane happening: a message from a shard, or its
// connection dying.
type coEvent struct {
	sc  *shardConn
	t   msgType
	p   []byte
	err error
}

// shardFailure names the shards a wait declared dead; the coordinator
// demotes them and installs a new generation on the survivors.
type shardFailure struct {
	scs    []*shardConn
	reason string
}

func (e *shardFailure) Error() string {
	names := make([]string, len(e.scs))
	for i, sc := range e.scs {
		names[i] = sc.String()
	}
	return fmt.Sprintf("dist: %s: %s", strings.Join(names, ", "), e.reason)
}

// Coordinator drives one distributed run: it owns the program's plan, the
// shard control connections, the epoch barriers, and crash recovery.
type Coordinator struct {
	spec Spec
	cfg  Config
	jp   *jobPlan

	ln     net.Listener
	shards []*shardConn // by stable ID
	live   []*shardConn // current generation, in live-index order
	events chan coEvent
	done   chan struct{}

	gen        uint32
	iter       int64
	lastImg    []byte
	outputs    map[string][]float64
	recoveries int
	lost       []int
}

// NewCoordinator compiles the spec and prepares a run; Listen then Run
// drive it.
func NewCoordinator(spec Spec, cfg Config) (*Coordinator, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	prog, err := buildProgram(spec, cfg.Registry)
	if err != nil {
		return nil, err
	}
	jp, err := buildJobPlan(prog, cfg.Strategy, cfg.Shards*cfg.PerShard)
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		spec:    spec,
		cfg:     cfg,
		jp:      jp,
		events:  make(chan coEvent, 16*cfg.Shards),
		done:    make(chan struct{}),
		outputs: make(map[string][]float64),
	}, nil
}

// Graph exposes the rewritten graph and schedule (for interchange tests
// and output bookkeeping).
func (co *Coordinator) Graph() (*ir.Graph, *sched.Schedule) { return co.jp.g2, co.jp.s2 }

// Listen opens the control listener and returns the address shards join.
func (co *Coordinator) Listen(addr string) (string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	co.ln = ln
	return ln.Addr().String(), nil
}

// Close releases the listener and every shard connection.
func (co *Coordinator) Close() {
	select {
	case <-co.done:
	default:
		close(co.done)
	}
	if co.ln != nil {
		co.ln.Close()
	}
	for _, sc := range co.shards {
		sc.fc.close()
	}
}

// Run rendezvouses with the shards, then drives epochs until total
// steady iterations commit, surviving shard failures by rolling the
// survivors back to the last barrier image under a re-packed assignment.
func (co *Coordinator) Run(total int) (*Result, error) {
	if co.ln == nil {
		return nil, fmt.Errorf("dist: call Listen before Run")
	}
	defer co.Close()
	if err := co.rendezvous(); err != nil {
		return nil, err
	}
	co.live = append([]*shardConn(nil), co.shards...)
	if len(co.cfg.StartImage) > 0 {
		co.lastImg = append([]byte(nil), co.cfg.StartImage...)
		co.iter = co.cfg.StartIter
	}
	installed := false
	for {
		if !installed {
			co.gen++
			if err := co.install(); err != nil {
				if !co.demote(err) {
					return nil, err
				}
				continue
			}
			installed = true
		}
		if co.iter >= int64(total) {
			break
		}
		n := co.cfg.Epoch
		if rem := int(int64(total) - co.iter); n > rem {
			n = rem
		}
		if err := co.epoch(n); err != nil {
			if !co.demote(err) {
				return nil, err
			}
			co.recoveries++
			installed = false
			continue
		}
	}
	for _, sc := range co.live {
		sc.fc.send(mtBye, nil)
	}
	return &Result{
		Iterations:  co.iter,
		Recoveries:  co.recoveries,
		Lost:        append([]int(nil), co.lost...),
		Outputs:     co.outputs,
		FinalImage:  append([]byte(nil), co.lastImg...),
		Generations: int(co.gen),
	}, nil
}

// rendezvous accepts every shard, ships the job, and verifies each local
// compile reproduced the fingerprint.
func (co *Coordinator) rendezvous() error {
	deadline := time.Now().Add(co.cfg.JoinTimeout)
	for id := 0; id < co.cfg.Shards; id++ {
		if tl, ok := co.ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		c, err := co.ln.Accept()
		if err != nil {
			return fmt.Errorf("dist: waiting for shard %d of %d: %w", id, co.cfg.Shards, err)
		}
		sc := &shardConn{id: id, fc: newFConn(c, co.cfg.WriteTimeout)}
		if err := co.handshake(sc); err != nil {
			sc.fc.close()
			return err
		}
		sc.lastBeat.Store(time.Now().UnixNano())
		co.shards = append(co.shards, sc)
		go co.readShard(sc)
		co.cfg.Log("dist: %s joined from %s", sc, sc.dataAddr)
	}
	return nil
}

func (co *Coordinator) handshake(sc *shardConn) error {
	t, p, err := sc.fc.recv(co.cfg.JoinTimeout)
	if err != nil {
		return fmt.Errorf("dist: shard %d hello: %w", sc.id, err)
	}
	if t != mtHello {
		return fmt.Errorf("dist: shard %d sent %s instead of hello", sc.id, t)
	}
	hello, err := decodeHello(p)
	if err != nil {
		return err
	}
	if hello.Proto != protoVersion {
		return fmt.Errorf("dist: shard %d speaks protocol %d, want %d", sc.id, hello.Proto, protoVersion)
	}
	sc.name, sc.dataAddr = hello.Name, hello.DataAddr
	job := &jobMsg{
		ShardID:     uint32(sc.id),
		App:         co.spec.App,
		Source:      co.spec.Source,
		Top:         co.spec.Top,
		Strategy:    string(co.cfg.Strategy),
		Backend:     uint8(co.cfg.Backend),
		Shards:      uint32(co.cfg.Shards),
		PerShard:    uint32(co.cfg.PerShard),
		Epoch:       uint32(co.cfg.Epoch),
		QueueDepth:  uint32(co.cfg.QueueDepth),
		TapSinks:    co.cfg.TapSinks,
		Faults:      co.cfg.Faults,
		Fingerprint: co.jp.fp,
	}
	if err := sc.fc.send(mtJob, job.encode()); err != nil {
		return err
	}
	if t, p, err = sc.fc.recv(co.cfg.EpochTimeout); err != nil {
		return fmt.Errorf("dist: %s compiling job: %w", sc, err)
	}
	switch t {
	case mtJobOK:
		ok, err := decodeText(p)
		if err != nil {
			return err
		}
		if ok.Code != co.jp.fp {
			return fmt.Errorf("dist: %s fingerprint %#x does not match %#x", sc, ok.Code, co.jp.fp)
		}
		return nil
	case mtError:
		if em, err := decodeText(p); err == nil {
			return fmt.Errorf("dist: %s rejected job: %s", sc, em.Text)
		}
		return fmt.Errorf("dist: %s rejected job", sc)
	default:
		return fmt.Errorf("dist: %s answered job with %s", sc, t)
	}
}

// readShard drains one shard's control connection: heartbeats update the
// liveness record in place, everything else (including the final error)
// becomes an event for the coordinator loop.
func (co *Coordinator) readShard(sc *shardConn) {
	for {
		t, p, err := sc.fc.recv(0)
		if err == nil && t == mtHeartbeat {
			if hb, herr := decodeBeat(p); herr == nil {
				sc.lastBeat.Store(time.Now().UnixNano())
				sc.waitMu.Lock()
				sc.waitsOn = hb.WaitingOn
				sc.waitMu.Unlock()
				continue
			}
			err = fmt.Errorf("dist: %s sent a malformed heartbeat", sc)
		}
		select {
		case co.events <- coEvent{sc: sc, t: t, p: p, err: err}:
		case <-co.done:
			return
		}
		if err != nil {
			return
		}
	}
}

// demote removes the failed shards from the live set. False means the run
// cannot continue (a non-failure error, or nobody left).
func (co *Coordinator) demote(err error) bool {
	sf, ok := err.(*shardFailure)
	if !ok {
		return false
	}
	co.cfg.Log("dist: recovering: %v", sf)
	for _, dead := range sf.scs {
		dead.dead = true
		dead.fc.close()
		co.lost = append(co.lost, dead.id)
	}
	var live []*shardConn
	for _, sc := range co.live {
		if !sc.dead {
			live = append(live, sc)
		}
	}
	co.live = live
	sort.Ints(co.lost)
	return len(co.live) > 0
}

// install aborts whatever generation the survivors are running, re-packs
// the graph onto them, and brings the new generation up: assign (+ the
// rollback image), then ready from everyone.
func (co *Coordinator) install() error {
	if co.gen > 1 {
		if err := co.abortAll(); err != nil {
			return err
		}
	}
	assign, err := co.jp.plan.Pack(co.jp.g2, co.jp.s2, partition.Topology{Shards: len(co.live), PerShard: co.cfg.PerShard})
	if err != nil {
		return err
	}
	ids := make([]uint32, len(co.live))
	addrs := make([]string, len(co.live))
	for i, sc := range co.live {
		ids[i] = uint32(sc.id)
		addrs[i] = sc.dataAddr
	}
	wire := make([]uint32, len(assign))
	for i, w := range assign {
		wire[i] = uint32(w)
	}
	msg := &assignMsg{Gen: co.gen, StartIter: co.iter, LiveShards: ids, Peers: addrs, Assign: wire, Image: co.lastImg}
	payload := msg.encode()
	for _, sc := range co.live {
		sc.readyGen = 0
		if err := sc.fc.send(mtAssign, payload); err != nil {
			return &shardFailure{[]*shardConn{sc}, fmt.Sprintf("assign send failed: %v", err)}
		}
	}
	co.cfg.Log("dist: generation %d: %d shards from iteration %d", co.gen, len(co.live), co.iter)
	return co.collect("install",
		func(sc *shardConn) bool { return sc.readyGen != co.gen },
		func(sc *shardConn, t msgType, p []byte) error {
			if t != mtReady {
				return nil // stale barrier/aborted from the old generation
			}
			m, err := decodeGen(p)
			if err != nil {
				return err
			}
			if m.Gen == co.gen {
				sc.readyGen = co.gen
			}
			return nil
		})
}

// abortAll tears the previous generation down on every survivor. The
// token echoed back is the NEW generation number.
func (co *Coordinator) abortAll() error {
	payload := (&textMsg{Code: uint64(co.gen), Text: "new generation"}).encode()
	for _, sc := range co.live {
		sc.abortedGen = 0
		if err := sc.fc.send(mtAbort, payload); err != nil {
			return &shardFailure{[]*shardConn{sc}, fmt.Sprintf("abort send failed: %v", err)}
		}
	}
	return co.collect("abort",
		func(sc *shardConn) bool { return sc.abortedGen != co.gen },
		func(sc *shardConn, t msgType, p []byte) error {
			if t != mtAborted {
				return nil
			}
			m, err := decodeGen(p)
			if err != nil {
				return err
			}
			if m.Gen == co.gen {
				sc.abortedGen = co.gen
			}
			return nil
		})
}

// epoch drives one barrier: run on every live shard, barriers from all of
// them, then merge into the canonical image and commit the sink chunks.
func (co *Coordinator) epoch(n int) error {
	for _, sc := range co.live {
		sc.barrier = nil
	}
	payload := (&genMsg{Gen: co.gen, Iters: uint32(n)}).encode()
	for _, sc := range co.live {
		if err := sc.fc.send(mtRun, payload); err != nil {
			return &shardFailure{[]*shardConn{sc}, fmt.Sprintf("run send failed: %v", err)}
		}
	}
	want := co.iter + int64(n)
	err := co.collect("barrier",
		func(sc *shardConn) bool { return sc.barrier == nil },
		func(sc *shardConn, t msgType, p []byte) error {
			if t != mtBarrier {
				return nil
			}
			m, err := decodeBarrier(p)
			if err != nil {
				return err
			}
			if m.Gen != co.gen {
				return nil // stale barrier racing an abort
			}
			if m.Iter != want {
				return fmt.Errorf("barrier at iteration %d, want %d", m.Iter, want)
			}
			sc.barrier = m
			return nil
		})
	if err != nil {
		return err
	}
	parts := make([]*exec.ShardState, len(co.live))
	for i, sc := range co.live {
		parts[i] = sc.barrier.State
	}
	img, err := exec.AssembleShardImage(co.jp.g2, co.jp.s2, want, parts)
	if err != nil {
		return err // structural: a bug, not a crash — fail the run
	}
	co.lastImg = img
	co.iter = want
	for _, sc := range co.live {
		for _, chunk := range sc.barrier.Sinks {
			if int(chunk.Node) >= len(co.jp.g2.Nodes) {
				return fmt.Errorf("dist: %s reported sink chunk for node %d", sc, chunk.Node)
			}
			name := co.jp.g2.Nodes[chunk.Node].Name
			co.outputs[name] = append(co.outputs[name], chunk.Items...)
		}
		sc.barrier = nil
	}
	if co.cfg.OnBarrier != nil {
		co.cfg.OnBarrier(co.iter)
	}
	return nil
}

// collect waits until no live shard still owes the current phase its
// message. Connection errors and explicit error reports fail that shard
// immediately; stale heartbeats fail silent shards; at the deadline the
// wait-graph (who is blocked receiving from whom) separates wedged shards
// from the peers they starve, and only the roots are declared dead.
func (co *Coordinator) collect(phase string, needs func(*shardConn) bool, on func(*shardConn, msgType, []byte) error) error {
	deadline := time.NewTimer(co.cfg.EpochTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(co.cfg.Heartbeat)
	defer tick.Stop()
	for {
		pending := false
		for _, sc := range co.live {
			if needs(sc) {
				pending = true
				break
			}
		}
		if !pending {
			return nil
		}
		select {
		case ev := <-co.events:
			if ev.sc.dead {
				continue
			}
			if ev.err != nil {
				return &shardFailure{[]*shardConn{ev.sc}, fmt.Sprintf("connection lost during %s: %v", phase, ev.err)}
			}
			if ev.t == mtError {
				reason := "reported an error"
				if em, err := decodeText(ev.p); err == nil {
					reason = em.Text
				}
				return &shardFailure{[]*shardConn{ev.sc}, reason}
			}
			if err := on(ev.sc, ev.t, ev.p); err != nil {
				return &shardFailure{[]*shardConn{ev.sc}, err.Error()}
			}
		case <-tick.C:
			now := time.Now().UnixNano()
			var stale []*shardConn
			for _, sc := range co.live {
				if now-sc.lastBeat.Load() > int64(co.cfg.HeartbeatTimeout) {
					stale = append(stale, sc)
				}
			}
			if len(stale) > 0 {
				return &shardFailure{stale, fmt.Sprintf("heartbeat lost during %s", phase)}
			}
		case <-deadline.C:
			var missing []*shardConn
			missingIDs := make(map[uint32]bool)
			for _, sc := range co.live {
				if needs(sc) {
					missing = append(missing, sc)
					missingIDs[uint32(sc.id)] = true
				}
			}
			roots := waitGraphRoots(missing, missingIDs)
			return &shardFailure{roots, fmt.Sprintf("%s deadline after %v", phase, co.cfg.EpochTimeout)}
		}
	}
}

// waitGraphRoots picks, among the shards that missed a deadline, the ones
// not blocked on another missing shard — the wedged root causes. A shard
// starved by a dead upstream waits on it and is spared; if everyone waits
// on someone (a cycle, or no wait info), all of them go.
func waitGraphRoots(missing []*shardConn, missingIDs map[uint32]bool) []*shardConn {
	var roots []*shardConn
	for _, sc := range missing {
		sc.waitMu.Lock()
		waits := append([]uint32(nil), sc.waitsOn...)
		sc.waitMu.Unlock()
		blockedOnMissing := false
		for _, id := range waits {
			if missingIDs[id] {
				blockedOnMissing = true
				break
			}
		}
		if !blockedOnMissing {
			roots = append(roots, sc)
		}
	}
	if len(roots) == 0 {
		return missing
	}
	return roots
}
