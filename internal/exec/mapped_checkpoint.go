package exec

import (
	"fmt"
	"io"
	"slices"

	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
	"streamit/internal/wire"
)

// Mapped checkpoints reuse the sequential engine's image format over the
// same (rewritten) graph and schedule, so the fingerprints and byte images
// are interchangeable: a checkpoint written by a mapped run restores into
// a sequential engine over the mapped graph and vice versa. An edge's
// counters are its rings' positions, as on the sequential engine: pushed is
// where its producer's ring ends, popped where its consumer's ring starts.
// Both follow from the firing counts (pushedAt), which is exact because
// every firing of an edge's source pushes a static rate onto it.
//
// Skewed plans add two wrinkles. An edge's buffered items split between
// the consumer's ring and the producer's unflushed staging residue; the
// image concatenates them (consumer ring first — it holds the older
// items), and a skewed restore re-derives the split from the flush
// schedule. And between segment boundaries the barrier is stage-skewed —
// each node has completed cycle-stage iterations, not a common count — so
// the image carries the SWPS trailer (checkpoint.go) recording the segment
// position and stage schedule; only a mapped engine with the same schedule
// can resume it. Boundary images (cycle 0 or segIters+maxStage) are
// uniform, and so is every image of a zero-skew plan: those interchange
// with the sequential engine.

// initCounts derives from the schedule each node's firings and each edge's
// pushes after initialization, and each edge's push per firing: checkpoints
// are written, assembled and validated by them without replaying init.
func initCounts(g *ir.Graph, s *sched.Schedule) (fired, pushed, push []int64) {
	fired = make([]int64, len(g.Nodes))
	for _, n := range g.Nodes {
		fired[n.ID] = int64(s.InitReps[n.ID])
	}
	pushed, push = make([]int64, len(g.Edges)), make([]int64, len(g.Edges))
	for _, e := range g.Edges {
		push[e.ID] = int64(e.Src.PushPort(e.SrcPort))
		pushed[e.ID] = pushedAt(e, fired[e.Src.ID], push)
	}
	return fired, pushed, push
}

// pushedAt is edge e's pushed count once its source has fired fired times,
// its pre-loaded delay items included, as its ring counts them.
func pushedAt(e *ir.Edge, fired int64, push []int64) int64 {
	return fired*push[e.ID] + int64(len(e.Initial))
}

// edgeItems appends edge e's buffered content at a barrier to dst: the
// consumer ring's, then any unflushed staging residue (the newest stretch
// of the edge's content).
func (me *MappedEngine) edgeItems(dst []float64, e *ir.Edge) []float64 {
	a, b := me.queues[e.ID].Stretches()
	dst = append(append(dst, a...), b...)
	if st := me.stage[e.ID]; st != nil {
		a, b = st.Stretches()
		dst = append(append(dst, a...), b...)
	}
	return dst
}

// WriteCheckpoint serializes the engine's execution state at an iteration
// boundary, streamed from its rings (a skewed barrier's staging residue
// after its queue) and states. The engine must have completed a Run or a
// RestoreCheckpoint (steady state quiesced: all workers joined, links
// drained). On skewed plans the recorded iteration is derived from the
// cycle position (retired iterations), superseding the argument.
func (me *MappedEngine) WriteCheckpoint(w io.Writer, iteration int64) error {
	if !me.ready {
		return fmt.Errorf("exec: mapped engine has no state to checkpoint; run it (or restore into it) first")
	}
	if me.local != nil && me.iter > 0 {
		return fmt.Errorf("exec: a sharded engine holds only its local partitions' state; use ExportShard + AssembleShardImage")
	}
	sw, trailer := me.swp, (*ckptSWP)(nil)
	if sw.maxStage() > 0 {
		// Only a skewed plan has barriers that are not uniform: it records
		// the iterations every stage has retired, and between segment
		// boundaries the stage trailer. Zero-skew images never carry one, so
		// they stay interchangeable with the sequential engine.
		iteration = sw.base + sw.completed(me.iter)
		if me.iter > 0 && me.iter < sw.segIters+sw.maxStage() {
			trailer = &ckptSWP{base: sw.base, segIters: sw.segIters, cycles: me.iter, batch: int(sw.batch), levels: sw.levels}
		}
	}
	var firings int64
	for _, rt := range me.nodes {
		firings += rt.fired
	}
	_, err := w.Write(appendImage(wire.Spare(w), me.fp, iteration, firings, me.nodes, me.queues, me.stage, sw.pending, trailer))
	return err
}

// RestoreCheckpoint loads a checkpoint image taken over the same graph and
// schedule (by a mapped or sequential engine), replacing the engine's
// execution state. It returns the logical iteration recorded at checkpoint
// time (the retired-iteration count, for a skewed barrier). On error the
// engine's state is unspecified and it must not be run.
func (me *MappedEngine) RestoreCheckpoint(data []byte) (int64, error) {
	if me.lost != nil {
		return 0, me.lost
	}
	// The constructor already initialized states and topology, and the image
	// supersedes initialization effects: a restore compiles nothing.
	me.ready = true
	if err := me.applyImage(data); err != nil {
		return 0, err
	}
	// Like setup, a restore leaves no rollback target: a drive takes its own.
	me.last = nil
	return me.swp.base + me.swp.completed(me.iter), nil
}

// applyImage decodes and validates a checkpoint image, then installs it as
// a barrier record whose states are the engine's own, decoded in place.
func (me *MappedEngine) applyImage(data []byte) error {
	defer func() { clear(me.decoded.edges) }() // the kept record keeps no view of data
	img, err := readImage(&me.decoded, data, me.fp, len(me.nodes), func(i int) (string, *wfunc.State, bool) {
		return me.nodes[i].node.Name, me.nodes[i].state, false
	})
	if err != nil {
		return err
	}
	sw := me.swp
	if len(img.edges) != len(me.G.Edges) {
		return fmt.Errorf("exec: checkpoint has %d edges, engine has %d", len(img.edges), len(me.G.Edges))
	}
	if img.swp != nil {
		if sw.maxStage() == 0 {
			return fmt.Errorf("exec: checkpoint is a stage-skewed software-pipelining barrier; only a pipelined mapped engine can resume it")
		}
		if int64(img.swp.batch) != sw.batch {
			return fmt.Errorf("exec: checkpoint stage batch %d does not match the engine's %d", img.swp.batch, sw.batch)
		}
		for id, lv := range img.swp.levels {
			if lv != sw.levels[id] {
				return fmt.Errorf("exec: checkpoint stage level %d of node %d does not match the engine's %d", lv, id, sw.levels[id])
			}
		}
	}
	for i, msgs := range img.pending {
		if len(msgs) > 0 && sw.pending == nil {
			return fmt.Errorf("exec: checkpoint carries pending teleport messages for node %d, but this graph has no messaging", i)
		}
	}
	if img.iteration < 0 {
		return fmt.Errorf("exec: checkpoint iteration %d is negative", img.iteration)
	}
	r := &barrier{base: sw.base, segIters: sw.segIters, items: me.gather, pending: img.pending}
	switch {
	case img.swp != nil:
		r.base, r.segIters, r.cycle = img.swp.base, img.swp.segIters, img.swp.cycles
	case sw.maxStage() == 0:
		// Every barrier of a zero-skew plan is uniform and its one segment
		// starts at iteration 0, so the cycle position is the iteration.
		r.cycle, r.segIters = img.iteration, max(r.segIters, img.iteration)
	case sw.segIters > 0 && img.iteration == sw.base:
		// The running segment's start barrier.
	case sw.segIters > 0 && img.iteration == sw.base+sw.segIters:
		r.cycle = sw.segIters + sw.maxStage()
	default:
		// A foreign uniform image starts a fresh segment here; the next
		// RunFromCheckpoint sets the segment length.
		r.base, r.segIters = img.iteration, 0
	}
	// Field states are already in place (readImage decoded them there);
	// validate every counter before touching anything else: firing counts
	// sit exactly where r's position puts them.
	for i, rt := range me.nodes {
		if want := me.firedAt(r, i); img.nodes[i].fired != want {
			return fmt.Errorf("exec: checkpoint fired count %d of node %s off the stage schedule (want %d)", img.nodes[i].fired, rt.node.Name, want)
		}
	}
	for _, e := range me.G.Edges {
		ie := img.edges[e.ID]
		if want := pushedAt(e, img.nodes[e.Src.ID].fired, me.push); ie.pushed != want {
			return fmt.Errorf("exec: checkpoint edge %s pushed counter %d disagrees with its source's firing count (want %d)", e, ie.pushed, want)
		}
		n := len(ie.raw) / 8
		r.items[e.ID] = slices.Grow(r.items[e.ID][:0], n)[:n]
		wire.DecodeF64s(r.items[e.ID], ie.raw)
		if s := me.staged(r, e); s > n {
			return fmt.Errorf("exec: checkpoint edge %s buffers %d items, fewer than its %d-item staging residue", e, n, s)
		}
	}
	me.install(r)
	return nil
}

// RunFromCheckpoint restores data into the engine and runs the remaining
// steady-state iterations up to total (the run's original iteration
// count). Initialization is not replayed — its effects are part of the
// checkpointed state. A skewed pipelined checkpoint resumes its original
// segment, so total must equal that segment's final iteration count.
func (me *MappedEngine) RunFromCheckpoint(data []byte, total int) error {
	it, err := me.RestoreCheckpoint(data)
	if err != nil {
		return err
	}
	if int64(total) < it {
		return fmt.Errorf("exec: checkpoint is at iteration %d, past the requested total %d", it, total)
	}
	return me.runTo(int64(total))
}
