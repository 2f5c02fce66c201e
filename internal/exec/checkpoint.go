package exec

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"slices"

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
// envelope and the distributed payloads also use): appendImage and
// readImage below are this list spelled once each way. The writer streams
// from the engine's rings and states into the caller's buffer, and the
// reader decodes field state and items in place, so neither side makes
// garbage. The reader validates every count against the remaining data
// before allocation and latches the first fault, and shapes are
// re-validated against the engine's graph at apply time, so corrupt or
// truncated images produce errors, never panics or huge allocations.
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

// GraphFingerprint hashes a graph and schedule structure (FNV-1a) — the
// identity under which checkpoints restore, compiled-program caches key,
// and the streaming server names program versions. A checkpoint only
// restores into an engine whose fingerprint matches, which catches
// restoring against a different program, different flattening, different
// mapped rewrite, or different schedule.
func GraphFingerprint(g *ir.Graph, s *sched.Schedule) uint64 {
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

// ckptImage is the engine-neutral decoded form of a checkpoint: what any
// engine over the fingerprinted graph needs to resume, and what its field
// state and items did not already decode into.
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

type ckptNode struct {
	fired int64
	// state is the private copy a shared state moved to (readNodeState);
	// nil where the image decoded into the engine's own state.
	state *wfunc.State
}

// ckptEdge is one edge's counters and its buffered items, still encoded:
// raw holds 8 bytes per item and aliases the image, so the engine decodes
// it into its own storage before the image's buffer goes away.
type ckptEdge struct {
	pushed, popped int64
	raw            []byte
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

// appendImage appends to dst the image of an engine at iteration, streamed
// from what the engine holds: its nodes' firing counts and states; per edge
// the items of queues[i], then of stage[i] (a producer's unflushed residue,
// where stage has one), its pushed counter where the later ring ends; the
// messages pending per node (nil without messaging); and sw's trailer (nil
// for a uniform image). dst grows at most once, to imageSize, and a reused
// buffer not at all.
func appendImage(dst []byte, fp uint64, iteration, firings int64, nodes []*nodeRT, queues, stage []*wfunc.Ring,
	pending [][]*message, sw *ckptSWP) []byte {
	w := wire.Writer(slices.Grow(dst, imageSize(nodes, queues, stage, pending, sw)))
	w = append(w, checkpointMagic...)
	w.U32(checkpointVersion)
	w.U64(fp)
	w.I64(iteration)
	w.I64(firings)
	w.Count(len(nodes))
	for _, rt := range nodes {
		w.I64(rt.fired)
		WriteNodeState(&w, rt.state)
	}
	w.Count(len(queues))
	for i := range queues {
		q, end, n := edgeRings(queues, stage, i)
		w.I64(end.Pushed)
		w.I64(q.Popped)
		w.Count(n)
		a, b := q.Stretches()
		w.F64s(a)
		w.F64s(b)
		if end != q {
			a, b = end.Stretches()
			w.F64s(a)
			w.F64s(b)
		}
	}
	for i := range nodes {
		msgs := pendingAt(pending, i)
		w.Count(len(msgs))
		for _, m := range msgs {
			w.Str(m.handler)
			w.Floats(m.args)
			w.I64(m.target)
			w.Bool(m.upstream)
			w.Bool(m.bestEffort)
		}
	}
	if sw != nil {
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

// imageSize is the length of the image appendImage writes from the same
// engine state: the static rates fix every count before a byte is written.
func imageSize(nodes []*nodeRT, queues, stage []*wfunc.Ring, pending [][]*message, sw *ckptSWP) int {
	size := 44 + 13*len(nodes) + 20*len(queues)
	for i, rt := range nodes {
		if st := rt.state; st != nil {
			size += 8 + 8*len(st.Scalars) + 4*len(st.Arrays)
			for _, a := range st.Arrays {
				size += 8 * len(a)
			}
		}
		for _, m := range pendingAt(pending, i) {
			size += 18 + len(m.handler) + 8*len(m.args)
		}
	}
	for i := range queues {
		_, _, n := edgeRings(queues, stage, i)
		size += 8 * n
	}
	if sw != nil {
		size += 36 + 4*len(sw.levels)
	}
	return size
}

// edgeRings is edge i in appendImage: the ring it starts in, the ring it
// ends in (its staging ring, where it has one) and the items they buffer.
func edgeRings(queues, stage []*wfunc.Ring, i int) (q, end *wfunc.Ring, n int) {
	q, end, n = queues[i], queues[i], queues[i].Len()
	if i < len(stage) && stage[i] != nil {
		end, n = stage[i], n+stage[i].Len()
	}
	return q, end, n
}

// pendingAt is node i's pending messages, none where pending is nil.
func pendingAt(pending [][]*message, i int) []*message {
	if i < len(pending) {
		return pending[i]
	}
	return nil
}

// readNodeState decodes the section WriteNodeState wrote straight into
// have, the state the engine holds for node name (nil for a node without
// one), checking the shapes as it goes, and returns the state that holds
// the image: field state is most of an image, and this way a restore
// allocates nothing for it. A shared have (a Shared's proto) is compared
// with the image bit for bit in the same pass instead of written: at the
// first difference the node takes a private copy, and decoding goes on
// into that.
func readNodeState(r *wire.Reader, name string, have *wfunc.State, shared bool) *wfunc.State {
	if r.Bool() != (have != nil) {
		r.Failf("state presence mismatch on node %s", name)
	}
	if have == nil || r.Err() != nil {
		return have
	}
	if n := r.Count(8); n != len(have.Scalars) {
		r.Failf("has %d scalar fields for node %s, which has %d", n, name, len(have.Scalars))
	}
	st, shared := readField(r, have, have, shared, -1)
	if n := r.Count(4); n != len(have.Arrays) {
		r.Failf("has %d array fields for node %s, which has %d", n, name, len(have.Arrays))
	}
	for k, a := range have.Arrays {
		if n := r.Count(8); n != len(a) {
			r.Failf("array field %d of node %s has size %d, checkpoint has %d", k, name, len(a), n)
		}
		st, shared = readField(r, st, have, shared, k)
	}
	return st
}

// readField reads field k of st (its scalars when k < 0) into it or, while
// shared, compares it with them, moving to a private copy of have at the
// first difference.
func readField(r *wire.Reader, st, have *wfunc.State, shared bool, k int) (*wfunc.State, bool) {
	vs := fieldOf(st, k)
	b := r.Raw(8 * len(vs)) // nil after a fault
	if shared && !wire.EqualF64s(vs, b) {
		st, shared = have.Clone(), false
		vs = fieldOf(st, k)
	}
	if !shared {
		wire.DecodeF64s(vs, b)
	}
	return st, shared
}

// fieldOf is st's array field k, or its scalars when k < 0.
func fieldOf(st *wfunc.State, k int) []float64 {
	if k < 0 {
		return st.Scalars
	}
	return st.Arrays[k]
}

// readImage decodes a checkpoint into the engine that calls it: node i's
// field state goes directly into the state node(i) returns with the node's
// name and whether it is shared (readNodeState), and the image keeps a
// state only where that moved to a private copy; each edge's items stay
// encoded, aliasing data, for the engine to decode into its own storage;
// everything else goes into img, whose slices it reuses, for the engine to
// validate against its graph and install; it returns img. The fingerprint,
// the node count, state shapes and structural invariants (edge counters vs.
// buffered items, flag ranges, no trailing bytes) are enforced here. After
// an error the unshared states handed out may hold part of the image.
func readImage(img *ckptImage, data []byte, wantFP uint64, numNodes int, node func(i int) (string, *wfunc.State, bool)) (*ckptImage, error) {
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
	img.iteration, img.firings, img.swp = r.I64(), r.I64(), nil
	if n := r.Count(9); n != numNodes { // i64 fired + u8 hasState minimum
		r.Failf("has %d nodes, engine has %d", n, numNodes)
	}
	img.nodes = slices.Grow(img.nodes[:0], numNodes)[:numNodes]
	for i := range img.nodes { // after a fault, r reads zeros and keeps its first error
		img.nodes[i] = ckptNode{fired: r.I64()}
		name, have, shared := node(i)
		if st := readNodeState(r, name, have, shared); st != have {
			img.nodes[i].state = st
		}
	}
	n := r.Count(20) // i64+i64+u32 minimum
	img.edges = slices.Grow(img.edges[:0], n)[:n]
	for i := range img.edges {
		e := &img.edges[i]
		e.pushed, e.popped, e.raw = r.I64(), r.I64(), r.Raw(8*r.Count(8))
		if e.pushed-e.popped != int64(len(e.raw)/8) {
			r.Failf("edge %d counters (pushed %d, popped %d) disagree with %d buffered items", i, e.pushed, e.popped, len(e.raw)/8)
		}
	}
	img.pending = slices.Grow(img.pending[:0], numNodes)[:numNodes]
	for i := range img.pending {
		// str length + floats count + i64 target + two flags minimum. The list
		// grows by append, so the loop itself must stop at a fault.
		img.pending[i] = img.pending[i][:0]
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
	_, err := w.Write(e.AppendCheckpoint(wire.Spare(w), iteration))
	return err
}

// AppendCheckpoint appends the image WriteCheckpoint writes to dst and
// returns the extended buffer, allocating nothing when dst has the room: a
// server that wraps an image in its own envelope encodes both in one pass.
func (e *Engine) AppendCheckpoint(dst []byte, iteration int64) []byte {
	return appendImage(dst, e.fp, iteration, e.Firings, e.nodes, e.chans, nil, e.pending, nil)
}

// RestoreCheckpoint loads a checkpoint image into an engine constructed
// over the same program and schedule, replacing its entire execution
// state. It returns the iteration recorded at checkpoint time. The engine
// must be freshly constructed or otherwise disposable: on error the
// engine's state is unspecified and it must not be run.
func (e *Engine) RestoreCheckpoint(data []byte) (int64, error) {
	img, err := readImage(new(ckptImage), data, e.fp, len(e.nodes), func(i int) (string, *wfunc.State, bool) {
		rt := e.nodes[i]
		return rt.node.Name, rt.state, rt.state != nil && rt.state == e.protos[i]
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
		if rt.fired = img.nodes[i].fired; img.nodes[i].state != nil {
			rt.setState(img.nodes[i].state)
		}
	}
	for i, ie := range img.edges {
		// Refill the existing ring, at the image's positions (filters are
		// bound to it), decoding the items straight into its slots.
		a, b := e.chans[i].Refill(ie.popped, len(ie.raw)/8)
		wire.DecodeF64s(a, ie.raw[:8*len(a)])
		wire.DecodeF64s(b, ie.raw[8*len(a):])
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
