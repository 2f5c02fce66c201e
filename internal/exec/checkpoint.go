package exec

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
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
// Every count is validated against the remaining data before allocation,
// and shapes are re-validated against the engine's graph at apply time, so
// corrupt or truncated images produce errors, never panics or huge
// allocations.
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

// Fingerprint hashes the engine's graph and schedule structure.
func (e *Engine) Fingerprint() uint64 { return graphFingerprint(e.G, e.Sch) }

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
	state *wfunc.State // nil for stateless nodes
}

type ckptEdge struct {
	pushed, popped int64
	items          []float64
}

// ckptWriter accumulates the image, latching the first write error.
type ckptWriter struct {
	w   io.Writer
	err error
}

func (c *ckptWriter) bytes(b []byte) {
	if c.err == nil {
		_, c.err = c.w.Write(b)
	}
}

func (c *ckptWriter) u8(v byte) { c.bytes([]byte{v}) }

func (c *ckptWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	c.bytes(b[:])
}

func (c *ckptWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.bytes(b[:])
}

func (c *ckptWriter) i64(v int64)   { c.u64(uint64(v)) }
func (c *ckptWriter) f64(v float64) { c.u64(math.Float64bits(v)) }

func (c *ckptWriter) floats(vs []float64) {
	c.u32(uint32(len(vs)))
	for _, v := range vs {
		c.f64(v)
	}
}

func (c *ckptWriter) str(s string) {
	c.u32(uint32(len(s)))
	c.bytes([]byte(s))
}

// writeImage serializes an image under the given graph fingerprint.
func writeImage(w io.Writer, fp uint64, img *ckptImage) error {
	c := &ckptWriter{w: w}
	c.bytes([]byte(checkpointMagic))
	c.u32(checkpointVersion)
	c.u64(fp)
	c.i64(img.iteration)
	c.i64(img.firings)
	c.u32(uint32(len(img.nodes)))
	for _, n := range img.nodes {
		c.i64(n.fired)
		if n.state == nil {
			c.u8(0)
			continue
		}
		c.u8(1)
		c.floats(n.state.Scalars)
		c.u32(uint32(len(n.state.Arrays)))
		for _, a := range n.state.Arrays {
			c.floats(a)
		}
	}
	c.u32(uint32(len(img.edges)))
	for _, e := range img.edges {
		c.i64(e.pushed)
		c.i64(e.popped)
		c.floats(e.items)
	}
	for _, msgs := range img.pending {
		c.u32(uint32(len(msgs)))
		for _, m := range msgs {
			c.str(m.handler)
			c.floats(m.args)
			c.i64(m.target)
			b := byte(0)
			if m.upstream {
				b = 1
			}
			c.u8(b)
			b = 0
			if m.bestEffort {
				b = 1
			}
			c.u8(b)
		}
	}
	if sw := img.swp; sw != nil {
		c.bytes([]byte(swpMagic))
		c.i64(sw.base)
		c.i64(sw.segIters)
		c.i64(sw.cycles)
		c.u32(uint32(sw.batch))
		c.u32(uint32(len(sw.levels)))
		for _, lv := range sw.levels {
			c.u32(uint32(lv))
		}
	}
	return c.err
}

// ckptReader consumes the image with hard bounds checks: every read
// validates the remaining length first, so malformed input fails cleanly.
type ckptReader struct {
	data []byte
	off  int
}

func (c *ckptReader) remaining() int { return len(c.data) - c.off }

func (c *ckptReader) take(n int) ([]byte, error) {
	if n < 0 || c.remaining() < n {
		return nil, fmt.Errorf("exec: checkpoint truncated at offset %d (want %d more bytes, have %d)", c.off, n, c.remaining())
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *ckptReader) u8() (byte, error) {
	b, err := c.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (c *ckptReader) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *ckptReader) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *ckptReader) i64() (int64, error) {
	v, err := c.u64()
	return int64(v), err
}

func (c *ckptReader) f64() (float64, error) {
	v, err := c.u64()
	return math.Float64frombits(v), err
}

// count reads a u32 length and checks it against the bytes that must
// follow (per-element size), so a corrupt length cannot trigger a huge
// allocation.
func (c *ckptReader) count(elemSize int, what string) (int, error) {
	v, err := c.u32()
	if err != nil {
		return 0, err
	}
	n := int(v)
	if n*elemSize > c.remaining() {
		return 0, fmt.Errorf("exec: checkpoint %s count %d exceeds remaining data", what, n)
	}
	return n, nil
}

func (c *ckptReader) floats(what string) ([]float64, error) {
	n, err := c.count(8, what)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		if out[i], err = c.f64(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readImage decodes and validates a checkpoint against the expected graph
// fingerprint. Structural invariants (edge counters vs. buffered items,
// flag ranges, no trailing bytes) are enforced here; graph-shape checks
// (node/edge counts, state field sizes) happen when an engine applies the
// image, since only the engine knows its graph.
func readImage(data []byte, wantFP uint64) (*ckptImage, error) {
	c := &ckptReader{data: data}
	magic, err := c.take(len(checkpointMagic))
	if err != nil {
		return nil, err
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("exec: not a checkpoint image (bad magic)")
	}
	version, err := c.u32()
	if err != nil {
		return nil, err
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("exec: checkpoint version %d not supported (want %d)", version, checkpointVersion)
	}
	fp, err := c.u64()
	if err != nil {
		return nil, err
	}
	if fp != wantFP {
		return nil, fmt.Errorf("exec: checkpoint fingerprint %016x does not match this program (%016x); was it taken from a different graph or schedule?", fp, wantFP)
	}
	img := &ckptImage{}
	if img.iteration, err = c.i64(); err != nil {
		return nil, err
	}
	if img.firings, err = c.i64(); err != nil {
		return nil, err
	}
	numNodes, err := c.count(9, "node") // i64 fired + u8 hasState minimum
	if err != nil {
		return nil, err
	}
	img.nodes = make([]ckptNode, numNodes)
	for i := range img.nodes {
		n := &img.nodes[i]
		if n.fired, err = c.i64(); err != nil {
			return nil, err
		}
		hasState, err := c.u8()
		if err != nil {
			return nil, err
		}
		if hasState > 1 {
			return nil, fmt.Errorf("exec: checkpoint state flag %d out of range on node %d", hasState, i)
		}
		if hasState == 0 {
			continue
		}
		scalars, err := c.floats("scalar")
		if err != nil {
			return nil, err
		}
		numArrays, err := c.count(4, "array")
		if err != nil {
			return nil, err
		}
		arrays := make([][]float64, numArrays)
		for k := range arrays {
			if arrays[k], err = c.floats("array data"); err != nil {
				return nil, err
			}
		}
		n.state = &wfunc.State{Scalars: scalars, Arrays: arrays}
	}
	numEdges, err := c.count(20, "edge") // i64+i64+u32 minimum
	if err != nil {
		return nil, err
	}
	img.edges = make([]ckptEdge, numEdges)
	for i := range img.edges {
		e := &img.edges[i]
		if e.pushed, err = c.i64(); err != nil {
			return nil, err
		}
		if e.popped, err = c.i64(); err != nil {
			return nil, err
		}
		if e.items, err = c.floats("channel item"); err != nil {
			return nil, err
		}
		if e.pushed-e.popped != int64(len(e.items)) {
			return nil, fmt.Errorf("exec: checkpoint edge %d counters (pushed %d, popped %d) disagree with %d buffered items", i, e.pushed, e.popped, len(e.items))
		}
	}
	img.pending = make([][]*message, numNodes)
	for i := range img.pending {
		numMsgs, err := c.count(1, "message")
		if err != nil {
			return nil, err
		}
		for k := 0; k < numMsgs; k++ {
			nameLen, err := c.count(1, "handler name")
			if err != nil {
				return nil, err
			}
			name, err := c.take(nameLen)
			if err != nil {
				return nil, err
			}
			args, err := c.floats("message arg")
			if err != nil {
				return nil, err
			}
			target, err := c.i64()
			if err != nil {
				return nil, err
			}
			up, err := c.u8()
			if err != nil {
				return nil, err
			}
			be, err := c.u8()
			if err != nil {
				return nil, err
			}
			if up > 1 || be > 1 {
				return nil, fmt.Errorf("exec: checkpoint message flags out of range")
			}
			img.pending[i] = append(img.pending[i], &message{
				handler: string(name), args: args, target: target,
				upstream: up == 1, bestEffort: be == 1,
			})
		}
	}
	if c.remaining() > 0 {
		magic, err := c.take(len(swpMagic))
		if err != nil {
			return nil, err
		}
		if string(magic) != swpMagic {
			return nil, fmt.Errorf("exec: %d trailing bytes after checkpoint image", c.remaining()+len(swpMagic))
		}
		sw := &ckptSWP{}
		if sw.base, err = c.i64(); err != nil {
			return nil, err
		}
		if sw.segIters, err = c.i64(); err != nil {
			return nil, err
		}
		if sw.cycles, err = c.i64(); err != nil {
			return nil, err
		}
		batch, err := c.u32()
		if err != nil {
			return nil, err
		}
		sw.batch = int(batch)
		numLevels, err := c.count(4, "stage level")
		if err != nil {
			return nil, err
		}
		if numLevels != int(numNodes) {
			return nil, fmt.Errorf("exec: checkpoint stage trailer has %d levels for %d nodes", numLevels, numNodes)
		}
		sw.levels = make([]int, numLevels)
		maxLevel := 0
		for i := range sw.levels {
			lv, err := c.u32()
			if err != nil {
				return nil, err
			}
			sw.levels[i] = int(lv)
			if int(lv) > maxLevel {
				maxLevel = int(lv)
			}
		}
		if sw.batch < 1 || sw.base < 0 || sw.segIters < 1 || sw.cycles < 1 ||
			sw.cycles >= sw.segIters+int64(maxLevel)*int64(sw.batch) {
			return nil, fmt.Errorf("exec: checkpoint stage trailer out of range (base %d, segment %d, cycle %d, batch %d)",
				sw.base, sw.segIters, sw.cycles, sw.batch)
		}
		img.swp = sw
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("exec: %d trailing bytes after checkpoint image", c.remaining())
	}
	return img, nil
}

// checkNodeState validates one node's checkpointed field state against the
// shape the engine holds for it. Every engine runs it over all nodes before
// it installs anything from the image.
func checkNodeState(name string, have, in *wfunc.State) error {
	if (in != nil) != (have != nil) {
		return fmt.Errorf("exec: checkpoint state presence mismatch on node %s", name)
	}
	if in == nil {
		return nil
	}
	if len(in.Scalars) != len(have.Scalars) {
		return fmt.Errorf("exec: node %s has %d scalar fields, checkpoint has %d", name, len(have.Scalars), len(in.Scalars))
	}
	if len(in.Arrays) != len(have.Arrays) {
		return fmt.Errorf("exec: node %s has %d array fields, checkpoint has %d", name, len(have.Arrays), len(in.Arrays))
	}
	for k := range in.Arrays {
		if len(in.Arrays[k]) != len(have.Arrays[k]) {
			return fmt.Errorf("exec: node %s array field %d has size %d, checkpoint has %d", name, k, len(have.Arrays[k]), len(in.Arrays[k]))
		}
	}
	return nil
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
		items := make([]float64, ch.Len())
		for k := range items {
			items[k] = ch.Peek(k)
		}
		img.edges[i] = ckptEdge{pushed: ch.pushed, popped: ch.popped, items: items}
	}
	return writeImage(w, e.Fingerprint(), img)
}

// RestoreCheckpoint loads a checkpoint image into an engine constructed
// over the same program and schedule, replacing its entire execution
// state. It returns the iteration recorded at checkpoint time. The engine
// must be freshly constructed or otherwise disposable: on error the
// engine's state is unspecified and it must not be run.
func (e *Engine) RestoreCheckpoint(data []byte) (int64, error) {
	img, err := readImage(data, e.Fingerprint())
	if err != nil {
		return 0, err
	}
	if img.swp != nil {
		return 0, fmt.Errorf("exec: checkpoint is a stage-skewed software-pipelining barrier; only a pipelined mapped engine can resume it")
	}
	if len(img.nodes) != len(e.nodes) {
		return 0, fmt.Errorf("exec: checkpoint has %d nodes, engine has %d", len(img.nodes), len(e.nodes))
	}
	if len(img.edges) != len(e.chans) {
		return 0, fmt.Errorf("exec: checkpoint has %d edges, engine has %d", len(img.edges), len(e.chans))
	}
	for i, rt := range e.nodes {
		if err := checkNodeState(rt.node.Name, rt.state, img.nodes[i].state); err != nil {
			return 0, err
		}
	}
	for i, rt := range e.nodes {
		in := img.nodes[i]
		rt.fired = in.fired
		if in.state != nil {
			rt.state.Scalars = in.state.Scalars
			rt.state.Arrays = in.state.Arrays
			if rt.runner != nil {
				rt.runner.setState(rt.state)
			}
		}
	}
	for i, ie := range img.edges {
		// Refill the existing ring: tape wrappers hold pointers to it.
		ch := e.chans[i]
		ch.head, ch.count = 0, 0
		for _, v := range ie.items {
			ch.Push(v)
		}
		ch.pushed = ie.pushed
		ch.popped = ie.popped
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
