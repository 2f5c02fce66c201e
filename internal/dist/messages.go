package dist

import (
	"fmt"

	"streamit/internal/exec"
	"streamit/internal/wire"
)

// Every payload is a list of internal/wire primitives: encode appends the
// message's fields in declaration order, decode reads them back in the same
// order and checks the reader once, at the end (its first fault sticks, and
// Done also rejects trailing bytes).

func payloadReader(p []byte) *wire.Reader { return wire.NewReader("dist: payload", p) }

// writeU32s and readU32s carry a u32 list (shard IDs, worker numbers).
func writeU32s(w *wire.Writer, vs []uint32) {
	w.Count(len(vs))
	for _, v := range vs {
		w.U32(v)
	}
}

func readU32s(r *wire.Reader) []uint32 {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = r.U32()
	}
	return vs
}

// helloMsg is a shard's join handshake: its display name and the address
// its data-plane listener accepts peer links on.
type helloMsg struct {
	Proto    uint32
	Name     string
	DataAddr string
}

// protoVersion guards against skew between coordinator and shard builds.
const protoVersion = 1

func (m *helloMsg) encode() []byte {
	var w wire.Writer
	w.U32(m.Proto)
	w.Str(m.Name)
	w.Str(m.DataAddr)
	return w
}

func decodeHello(p []byte) (*helloMsg, error) {
	r := payloadReader(p)
	m := &helloMsg{Proto: r.U32(), Name: r.Str(), DataAddr: r.Str()}
	return m, r.Done()
}

// jobMsg carries everything a shard needs to rebuild the coordinator's
// exec plan locally: the program (source text, or a registered app name),
// the plan options, and the fingerprint of the rewritten graph the local
// compile must reproduce. ShardID is the shard's stable logical identity
// — it survives re-plans, so fault targeting and logs stay coherent.
type jobMsg struct {
	ShardID     uint32
	App         string
	Source      string
	Top         string
	Strategy    string
	Backend     uint8
	Shards      uint32
	PerShard    uint32
	Epoch       uint32
	QueueDepth  uint32
	TapSinks    bool
	Faults      string
	Fingerprint uint64
}

func (m *jobMsg) encode() []byte {
	var w wire.Writer
	w.U32(m.ShardID)
	w.Str(m.App)
	w.Str(m.Source)
	w.Str(m.Top)
	w.Str(m.Strategy)
	w.U8(m.Backend)
	w.U32(m.Shards)
	w.U32(m.PerShard)
	w.U32(m.Epoch)
	w.U32(m.QueueDepth)
	w.Bool(m.TapSinks)
	w.Str(m.Faults)
	w.U64(m.Fingerprint)
	return w
}

func decodeJob(p []byte) (*jobMsg, error) {
	r := payloadReader(p)
	m := &jobMsg{
		ShardID: r.U32(), App: r.Str(), Source: r.Str(), Top: r.Str(), Strategy: r.Str(),
		Backend: r.U8(), Shards: r.U32(), PerShard: r.U32(), Epoch: r.U32(), QueueDepth: r.U32(),
		TapSinks: r.Bool(), Faults: r.Str(), Fingerprint: r.U64(),
	}
	return m, r.Done()
}

// assignMsg installs one generation's topology on a shard: the live shard
// IDs in shard-index order, their data addresses, the node→global-worker
// assignment, the iteration to resume from, and (after a recovery or for
// late joiners) the barrier image to restore.
type assignMsg struct {
	Gen        uint32
	StartIter  int64
	LiveShards []uint32
	Peers      []string
	Assign     []uint32
	Image      []byte
}

func (m *assignMsg) encode() []byte {
	var w wire.Writer
	w.U32(m.Gen)
	w.I64(m.StartIter)
	writeU32s(&w, m.LiveShards)
	w.Count(len(m.Peers))
	for _, p := range m.Peers {
		w.Str(p)
	}
	writeU32s(&w, m.Assign)
	w.Bytes(m.Image)
	return w
}

func decodeAssign(p []byte) (*assignMsg, error) {
	r := payloadReader(p)
	m := &assignMsg{Gen: r.U32(), StartIter: r.I64(), LiveShards: readU32s(r)}
	m.Peers = make([]string, r.Count(4))
	for i := range m.Peers {
		m.Peers[i] = r.Str()
	}
	m.Assign, m.Image = readU32s(r), r.Bytes()
	return m, r.Done()
}

// sinkChunk is one epoch's captured output of one locally-owned sink.
type sinkChunk struct {
	Node  uint32
	Items []float64
}

// barrierMsg is a shard's report at an epoch barrier: its generation and
// iteration, the owned slice of the coordinated image, and the sink
// output captured during the epoch (TapSinks mode).
type barrierMsg struct {
	Gen   uint32
	Iter  int64
	State *exec.ShardState
	Sinks []sinkChunk
}

func (m *barrierMsg) encode() []byte {
	var w wire.Writer
	w.U32(m.Gen)
	w.I64(m.Iter)
	w.I64(m.State.Iteration)
	w.Count(len(m.State.Nodes))
	for _, ns := range m.State.Nodes {
		w.U32(uint32(ns.ID))
		w.I64(ns.Fired)
		exec.WriteNodeState(&w, ns.State)
	}
	w.Count(len(m.State.Edges))
	for _, es := range m.State.Edges {
		w.U32(uint32(es.ID))
		w.Floats(es.Items)
	}
	w.Count(len(m.Sinks))
	for _, sc := range m.Sinks {
		w.U32(sc.Node)
		w.Floats(sc.Items)
	}
	return w
}

func decodeBarrier(p []byte) (*barrierMsg, error) {
	r := payloadReader(p)
	m := &barrierMsg{Gen: r.U32(), Iter: r.I64(), State: &exec.ShardState{Iteration: r.I64()}}
	m.State.Nodes = make([]exec.ShardNodeState, r.Count(13)) // u32 id + i64 fired + u8 has minimum
	for i := range m.State.Nodes {
		m.State.Nodes[i] = exec.ShardNodeState{ID: int(r.U32()), Fired: r.I64(), State: exec.ReadNodeState(r)}
	}
	m.State.Edges = make([]exec.ShardEdgeState, r.Count(8)) // u32 id + u32 count minimum
	for i := range m.State.Edges {
		m.State.Edges[i] = exec.ShardEdgeState{ID: int(r.U32()), Items: r.Floats()}
	}
	m.Sinks = make([]sinkChunk, r.Count(8))
	for i := range m.Sinks {
		m.Sinks[i] = sinkChunk{Node: r.U32(), Items: r.Floats()}
	}
	return m, r.Done()
}

// batchMsg is one cross-shard edge's per-iteration batch on a data link.
// Seq numbers batches per edge so a torn reconnect cannot silently skip
// or replay one.
type batchMsg struct {
	Edge  uint32
	Seq   uint64
	Items []float64
}

func (m *batchMsg) encode() []byte {
	var w wire.Writer
	w.U32(m.Edge)
	w.U64(m.Seq)
	w.Floats(m.Items)
	return w
}

func decodeBatch(p []byte) (*batchMsg, error) {
	r := payloadReader(p)
	m := &batchMsg{Edge: r.U32(), Seq: r.U64(), Items: r.Floats()}
	return m, r.Done()
}

// linkHelloMsg identifies a dialing shard on a fresh data connection.
type linkHelloMsg struct {
	From uint32
	Gen  uint32
}

func (m *linkHelloMsg) encode() []byte {
	var w wire.Writer
	w.U32(m.From)
	w.U32(m.Gen)
	return w
}

func decodeLinkHello(p []byte) (*linkHelloMsg, error) {
	r := payloadReader(p)
	m := &linkHelloMsg{From: r.U32(), Gen: r.U32()}
	return m, r.Done()
}

// beatMsg is a shard heartbeat: WaitingOn lists the stable IDs of shards
// some local worker is currently blocked receiving from. At a barrier
// deadline the coordinator builds the wait-graph from these, so a wedged
// shard (waiting on nobody) is told apart from the downstream shards it
// starved — only the root cause is declared dead.
type beatMsg struct {
	WaitingOn []uint32
}

func (m *beatMsg) encode() []byte {
	var w wire.Writer
	writeU32s(&w, m.WaitingOn)
	return w
}

func decodeBeat(p []byte) (*beatMsg, error) {
	r := payloadReader(p)
	m := &beatMsg{WaitingOn: readU32s(r)}
	return m, r.Done()
}

// genMsg is the shared shape of the small control acks that carry only a
// generation (ready, aborted) or a generation plus a count (run).
type genMsg struct {
	Gen   uint32
	Iters uint32
}

func (m *genMsg) encode() []byte {
	var w wire.Writer
	w.U32(m.Gen)
	w.U32(m.Iters)
	return w
}

func decodeGen(p []byte) (*genMsg, error) {
	r := payloadReader(p)
	m := &genMsg{Gen: r.U32(), Iters: r.U32()}
	return m, r.Done()
}

// textMsg carries jobOK's fingerprint echo, abort reasons, and error
// reports.
type textMsg struct {
	Code uint64
	Text string
}

func (m *textMsg) encode() []byte {
	var w wire.Writer
	w.U64(m.Code)
	w.Str(m.Text)
	return w
}

func decodeText(p []byte) (*textMsg, error) {
	r := payloadReader(p)
	m := &textMsg{Code: r.U64(), Text: r.Str()}
	return m, r.Done()
}

// decodeAny re-parses a frame's payload by type — the fuzz target's hook
// into every payload decoder. Returns an error for types whose payloads
// are free-form (heartbeat, bye) only when bytes are present.
func decodeAny(t msgType, p []byte) error {
	var err error
	switch t {
	case mtHello:
		_, err = decodeHello(p)
	case mtJob:
		_, err = decodeJob(p)
	case mtAssign:
		_, err = decodeAssign(p)
	case mtBarrier:
		_, err = decodeBarrier(p)
	case mtBatch:
		_, err = decodeBatch(p)
	case mtLinkHello:
		_, err = decodeLinkHello(p)
	case mtReady, mtRun, mtAborted, mtAbort:
		if t == mtAbort {
			_, err = decodeText(p)
		} else {
			_, err = decodeGen(p)
		}
	case mtJobOK, mtError:
		_, err = decodeText(p)
	case mtHeartbeat:
		_, err = decodeBeat(p)
	case mtBye:
		if len(p) != 0 {
			err = fmt.Errorf("dist: %s frames carry no payload", t)
		}
	default:
		err = fmt.Errorf("dist: unknown frame type %s", t)
	}
	return err
}
