package exec

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
	"streamit/internal/wire"
)

// Checkpoint format: a self-describing binary image of an engine's
// complete execution state, written at an iteration boundary and restored
// into a freshly constructed engine over the same program. The image holds
// only semantic state — tape contents and counters, filter fields, firing
// counts, pending teleport messages — never backend artifacts or worker
// topology, so a checkpoint taken under the VM restores under the
// interpreter and vice versa, and a mapped-engine image taken over a
// rewritten graph restores into any engine over that same graph,
// bit-identically.
//
// Layout (little-endian):
//
//	magic "STRMCKPT" | u32 version | u64 graph fingerprint
//	i64 iteration | i64 firings
//	u32 node count | per node: i64 fired, u8 hasState,
//	    [u32 scalar count, f64...; u32 array count, per array u32 len, f64...]
//	u32 edge count | per edge: i64 pushed, i64 popped, u32 len, f64 items...
//	per node: u32 message count, per message:
//	    u32 handler len, bytes, u32 arg count, f64 args...,
//	    i64 target, u8 upstream, u8 bestEffort
//	optional trailer, only for mid-segment software-pipelined barriers:
//	    magic "SWPS" | i64 base | i64 segIters | i64 cycles |
//	    u32 batch | u32 level count, u32 levels...
//
// The fields are internal/wire primitives (the one codec the session
// envelope and the distributed payloads also use): encodeImage and
// readImage below are this list spelled once each way. The reader validates
// every count against the remaining data before allocation and latches the
// first fault, and shapes are re-validated against the engine's graph at
// apply time, so corrupt or truncated images produce errors, never panics
// or huge allocations.
//
// Images without the SWPS trailer are uniform: every node sits at the same
// logical iteration, and any engine over the fingerprinted graph can
// restore them. The trailer marks a stage-skewed pipelined barrier — nodes
// at stage s have run `cycles - s` macro-cycles of a segment of segIters
// iterations started at logical iteration base — which only a mapped
// engine running the same stage schedule can resume.
const (
	checkpointMagic   = "STRMCKPT"
	checkpointVersion = 1
	swpMagic          = "SWPS"
)

// graphFingerprint hashes a graph and schedule structure (FNV-1a). A
// checkpoint only restores into an engine whose fingerprint matches, which
// catches restoring against a different program, different flattening,
// different mapped rewrite, or different schedule.
func graphFingerprint(g *ir.Graph, s *sched.Schedule) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	ws := func(s string) {
		wi(int64(len(s)))
		io.WriteString(h, s)
	}
	wi(int64(len(g.Nodes)))
	for _, n := range g.Nodes {
		ws(n.Name)
		wi(int64(n.Kind))
		wi(int64(len(n.In)))
		wi(int64(len(n.Out)))
		for _, w := range n.SJ.Weights {
			wi(int64(w))
		}
		wi(int64(s.Reps[n.ID]))
	}
	wi(int64(len(g.Edges)))
	for _, edge := range g.Edges {
		wi(int64(edge.Src.ID))
		wi(int64(edge.SrcPort))
		wi(int64(edge.Dst.ID))
		wi(int64(edge.DstPort))
	}
	return h.Sum64()
}

// Fingerprint is the hash of the engine's graph and schedule structure,
// computed once when its Shared bundle was built.
func (e *Engine) Fingerprint() uint64 { return e.fp }

// GraphFingerprint hashes a graph and schedule structure — the identity
// under which checkpoints restore, compiled-program caches key, and the
// streaming server names program versions.
func GraphFingerprint(g *ir.Graph, s *sched.Schedule) uint64 { return graphFingerprint(g, s) }

// ckptImage is the engine-neutral decoded form of a checkpoint: what any
// engine over the fingerprinted graph needs to resume.
type ckptImage struct {
	iteration int64
	firings   int64
	nodes     []ckptNode
	edges     []ckptEdge
	pending   [][]*message // per node; empty for engines without messaging
	swp       *ckptSWP     // stage-skew trailer; nil for uniform images
}

// ckptSWP records a software-pipelined barrier's position in its segment
// plus the stage schedule it was taken under (validated on restore).
type ckptSWP struct {
	base     int64 // logical iterations completed before this segment
	segIters int64 // logical iterations this segment runs
	cycles   int64 // macro-cycles completed within the segment
	batch    int   // flush interval / stage distance in cycles
	levels   []int // per-node stage levels
}

// done is how many of the segment's iterations node id had completed at
// the barrier: its gated cycles, clamped to the segment.
func (s *ckptSWP) done(id int) int64 {
	return min(max(s.cycles-int64(s.levels[id])*int64(s.batch), 0), s.segIters)
}

type ckptNode struct {
	fired int64
	// state is what an engine writing an image lends it (nil for stateless
	// nodes); reading one decodes straight into the engine's states instead.
	state *wfunc.State
}

// ckptEdge is one edge's counters and buffered items. An engine writing an
// image lends its own buffers instead of copying them — more is the stretch
// that follows items there, a ring's wrapped part — so such an image must
// be encoded before the engine runs again. A decoded image has everything
// in items.
type ckptEdge struct {
	pushed, popped int64
	items, more    []float64
}

// WriteNodeState appends one node's state section, `u8 has | floats
// scalars | count | floats array...` — the one spelling shared by the image
// and by the distributed barrier report.
func WriteNodeState(w *wire.Writer, st *wfunc.State) {
	w.Bool(st != nil)
	if st == nil {
		return
	}
	w.Floats(st.Scalars)
	w.Count(len(st.Arrays))
	for _, a := range st.Arrays {
		w.Floats(a)
	}
}

// ReadNodeState reads the section WriteNodeState wrote; nil for a
// stateless node.
func ReadNodeState(r *wire.Reader) *wfunc.State {
	if !r.Bool() {
		return nil
	}
	st := &wfunc.State{Scalars: r.Floats()}
	st.Arrays = make([][]float64, r.Count(4))
	for k := range st.Arrays {
		st.Arrays[k] = r.Floats()
	}
	return st
}

// spare is the free space w lends a caller that is about to Write to it (a
// bytes.Buffer and a bufio.Writer do): a reused buffer then takes an image
// without an allocation or a copy. It is nil for any other writer.
func spare(w io.Writer) []byte {
	if sb, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		return sb.AvailableBuffer()
	}
	return nil
}

// encodeImage serializes an image under the given graph fingerprint,
// appending to dst[:0] when that has the room.
func encodeImage(dst []byte, fp uint64, img *ckptImage) []byte {
	// Size the buffer for everything but pending messages and the trailer,
	// so a typical image is one allocation instead of a doubling series.
	size := 64 + 32*len(img.nodes) + 24*len(img.edges)
	for _, e := range img.edges {
		size += 8 * (len(e.items) + len(e.more))
	}
	for _, n := range img.nodes {
		if n.state != nil {
			size += 8 * len(n.state.Scalars)
			for _, a := range n.state.Arrays {
				size += 4 + 8*len(a)
			}
		}
	}
	w := wire.Writer(dst[:0])
	if cap(w) < size {
		w = make(wire.Writer, 0, size)
	}
	w = append(w, checkpointMagic...)
	w.U32(checkpointVersion)
	w.U64(fp)
	w.I64(img.iteration)
	w.I64(img.firings)
	w.Count(len(img.nodes))
	for _, n := range img.nodes {
		w.I64(n.fired)
		WriteNodeState(&w, n.state)
	}
	w.Count(len(img.edges))
	for _, e := range img.edges {
		w.I64(e.pushed)
		w.I64(e.popped)
		w.Count(len(e.items) + len(e.more))
		w.F64s(e.items)
		if len(e.more) > 0 { // most edges lend one stretch: skip the call
			w.F64s(e.more)
		}
	}
	for _, msgs := range img.pending {
		w.Count(len(msgs))
		for _, m := range msgs {
			w.Str(m.handler)
			w.Floats(m.args)
			w.I64(m.target)
			w.Bool(m.upstream)
			w.Bool(m.bestEffort)
		}
	}
	if sw := img.swp; sw != nil {
		w = append(w, swpMagic...)
		w.I64(sw.base)
		w.I64(sw.segIters)
		w.I64(sw.cycles)
		w.U32(uint32(sw.batch))
		w.Count(len(sw.levels))
		for _, lv := range sw.levels {
			w.U32(uint32(lv))
		}
	}
	return w
}

// readNodeState decodes the section WriteNodeState wrote straight into
// have, the state the engine holds for node name (nil for a node without
// one), checking the shapes as it goes: field state is most of an image, and
// this way a restore allocates nothing for it.
func readNodeState(r *wire.Reader, name string, have *wfunc.State) {
	if r.Bool() != (have != nil) {
		r.Failf("state presence mismatch on node %s", name)
	}
	if have == nil || r.Err() != nil {
		return
	}
	if n := r.Count(8); n != len(have.Scalars) {
		r.Failf("has %d scalar fields for node %s, which has %d", n, name, len(have.Scalars))
	}
	r.F64s(have.Scalars)
	if n := r.Count(4); n != len(have.Arrays) {
		r.Failf("has %d array fields for node %s, which has %d", n, name, len(have.Arrays))
	}
	for k, a := range have.Arrays {
		if n := r.Count(8); n != len(a) {
			r.Failf("array field %d of node %s has size %d, checkpoint has %d", k, name, len(a), n)
		}
		r.F64s(a)
	}
}

// readImage decodes a checkpoint into the engine that calls it: node i's
// field state goes directly into the state node(i) returns with the node's
// name, everything else into the returned image for the engine to validate
// against its graph and install. The fingerprint, the node count, state
// shapes and structural invariants (edge counters vs. buffered items, flag
// ranges, no trailing bytes) are enforced here. After an error the states
// handed out may hold part of the image.
func readImage(data []byte, wantFP uint64, numNodes int, node func(i int) (string, *wfunc.State)) (*ckptImage, error) {
	r := wire.NewReader("exec: checkpoint", data)
	if magic := r.Raw(len(checkpointMagic)); string(magic) != checkpointMagic {
		r.Failf("has a bad magic (not a checkpoint image)")
	}
	if version := r.U32(); version != checkpointVersion {
		r.Failf("version %d not supported (want %d)", version, checkpointVersion)
	}
	if fp := r.U64(); fp != wantFP {
		r.Failf("fingerprint %016x does not match this program (%016x); was it taken from a different graph or schedule?", fp, wantFP)
	}
	img := &ckptImage{iteration: r.I64(), firings: r.I64()}
	if n := r.Count(9); n != numNodes { // i64 fired + u8 hasState minimum
		r.Failf("has %d nodes, engine has %d", n, numNodes)
	}
	img.nodes = make([]ckptNode, numNodes)
	for i := range img.nodes {
		if r.Err() != nil {
			break
		}
		img.nodes[i].fired = r.I64()
		name, have := node(i)
		readNodeState(r, name, have)
	}
	img.edges = make([]ckptEdge, r.Count(20)) // i64+i64+u32 minimum
	for i := range img.edges {
		e := &img.edges[i]
		e.pushed, e.popped, e.items = r.I64(), r.I64(), r.Floats()
		if e.pushed-e.popped != int64(len(e.items)) {
			r.Failf("edge %d counters (pushed %d, popped %d) disagree with %d buffered items", i, e.pushed, e.popped, len(e.items))
		}
	}
	img.pending = make([][]*message, len(img.nodes))
	for i := range img.pending {
		// str length + floats count + i64 target + two flags minimum. The list
		// grows by append, so the loop itself must stop at a fault.
		for k := r.Count(18); k > 0 && r.Err() == nil; k-- {
			img.pending[i] = append(img.pending[i], &message{
				handler: r.Str(), args: r.Floats(), target: r.I64(),
				upstream: r.Bool(), bestEffort: r.Bool(),
			})
		}
	}
	if r.Remaining() > 0 {
		if magic := r.Raw(len(swpMagic)); string(magic) == swpMagic {
			img.swp = readSWP(r, len(img.nodes))
		} else {
			r.Failf("has %d trailing bytes", r.Remaining()+len(swpMagic))
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return img, nil
}

// readSWP reads the stage-skew trailer that follows its magic.
func readSWP(r *wire.Reader, numNodes int) *ckptSWP {
	sw := &ckptSWP{base: r.I64(), segIters: r.I64(), cycles: r.I64(), batch: int(r.U32())}
	sw.levels = make([]int, r.Count(4))
	if len(sw.levels) != numNodes {
		r.Failf("stage trailer has %d levels for %d nodes", len(sw.levels), numNodes)
	}
	maxLevel := 0
	for i := range sw.levels {
		sw.levels[i] = int(r.U32())
		maxLevel = max(maxLevel, sw.levels[i])
	}
	if sw.batch < 1 || sw.base < 0 || sw.segIters < 1 || sw.cycles < 1 ||
		sw.cycles >= sw.segIters+int64(maxLevel)*int64(sw.batch) {
		r.Failf("stage trailer out of range (base %d, segment %d, cycle %d, batch %d)",
			sw.base, sw.segIters, sw.cycles, sw.batch)
	}
	return sw
}

// WriteCheckpoint serializes the engine's execution state. iteration is
// the caller's steady-state position (how many iterations have run), so a
// resuming process knows how many remain.
func (e *Engine) WriteCheckpoint(w io.Writer, iteration int64) error {
	img := &ckptImage{
		iteration: iteration,
		firings:   e.Firings,
		nodes:     make([]ckptNode, len(e.nodes)),
		edges:     make([]ckptEdge, len(e.chans)),
		pending:   e.pending,
	}
	for i, rt := range e.nodes {
		img.nodes[i] = ckptNode{fired: rt.fired, state: rt.state}
	}
	for i, ch := range e.chans {
		items, more := ch.Stretches()
		img.edges[i] = ckptEdge{pushed: ch.Pushed, popped: ch.Popped, items: items, more: more}
	}
	_, err := w.Write(encodeImage(spare(w), e.fp, img))
	return err
}

// RestoreCheckpoint loads a checkpoint image into an engine constructed
// over the same program and schedule, replacing its entire execution
// state. It returns the iteration recorded at checkpoint time. The engine
// must be freshly constructed or otherwise disposable: on error the
// engine's state is unspecified and it must not be run.
func (e *Engine) RestoreCheckpoint(data []byte) (int64, error) {
	img, err := readImage(data, e.fp, len(e.nodes), func(i int) (string, *wfunc.State) {
		return e.nodes[i].node.Name, e.nodes[i].state
	})
	if err != nil {
		return 0, err
	}
	if img.swp != nil {
		return 0, fmt.Errorf("exec: checkpoint is a stage-skewed software-pipelining barrier; only a pipelined mapped engine can resume it")
	}
	if len(img.edges) != len(e.chans) {
		return 0, fmt.Errorf("exec: checkpoint has %d edges, engine has %d", len(img.edges), len(e.chans))
	}
	for i, rt := range e.nodes {
		rt.fired = img.nodes[i].fired
	}
	for i, ie := range img.edges {
		// Refill the existing ring, at the image's positions: filters are
		// bound to it.
		e.chans[i].Fill(ie.popped, ie.items)
	}
	copy(e.pending, img.pending)
	e.Firings = img.firings
	return img.iteration, nil
}

// RunFromCheckpoint restores data into the engine and runs the remaining
// steady-state iterations up to total (the run's original iteration
// count). The initialization schedule is not re-run — its effects are part
// of the checkpointed state.
func (e *Engine) RunFromCheckpoint(data []byte, total int) error {
	it, err := e.RestoreCheckpoint(data)
	if err != nil {
		return err
	}
	if int64(total) < it {
		return fmt.Errorf("exec: checkpoint is at iteration %d, past the requested total %d", it, total)
	}
	return e.RunSteady(total - int(it))
}
