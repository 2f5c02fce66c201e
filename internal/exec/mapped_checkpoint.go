package exec

import (
	"fmt"
	"io"

	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// Mapped checkpoints reuse the sequential engine's image format over the
// same (rewritten) graph and schedule, so the fingerprints and byte images
// are interchangeable: a checkpoint written by a mapped run restores into
// a sequential engine over the mapped graph and vice versa. An edge's
// counters are its rings' positions, as on the sequential engine: pushed is
// where its producer's ring ends, popped where its consumer's ring starts.
// A restore checks them against the firing counts, which is exact because
// every firing of an edge's source pushes a static rate onto it:
//
//	pushed(e) = initPushed(e) + (fired(src) - initFired(src)) * rate(e)
//
// where initFired/initPushed are the schedule's initialization totals
// (initPushed includes an edge's pre-loaded delay items, which the ring
// counts as pushes).
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

// Fingerprint is the hash of the engine's graph and schedule structure,
// computed once at construction; it equals the sequential engine's
// fingerprint over the same graph and schedule.
func (me *MappedEngine) Fingerprint() uint64 { return me.fp }

// initCounts derives the post-initialization firing totals (per node) and
// push totals (per edge) from the schedule. These let checkpoints be
// written, assembled and validated without replaying initialization.
func initCounts(g *ir.Graph, s *sched.Schedule) (fired, pushed []int64) {
	fired = make([]int64, len(g.Nodes))
	for _, n := range g.Nodes {
		fired[n.ID] = int64(s.InitReps[n.ID])
	}
	pushed = make([]int64, len(g.Edges))
	for _, e := range g.Edges {
		pushed[e.ID] = fired[e.Src.ID]*int64(e.Src.PushPort(e.SrcPort)) + int64(len(e.Initial))
	}
	return fired, pushed
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

// image captures the engine-neutral checkpoint at the current barrier, in
// storage the engine reuses. It lends the engine's rings, states, stage
// levels and pending messages: encode it before the engine runs again.
func (me *MappedEngine) image(iteration int64) *ckptImage {
	sw, img := me.swp, &me.img
	if img.nodes == nil {
		img.nodes = make([]ckptNode, len(me.nodes))
		img.edges = make([]ckptEdge, len(me.G.Edges))
		img.pending = make([][]*message, len(me.nodes))
		me.gather = make([][]float64, len(me.G.Edges))
	}
	img.iteration, img.firings, img.swp = iteration, 0, nil
	if sw.maxStage() > 0 {
		// Only a skewed plan has barriers that are not uniform: it records
		// the iterations every stage has retired, and between segment
		// boundaries the stage trailer. Zero-skew images never carry one, so
		// they stay interchangeable with the sequential engine.
		img.iteration = sw.base + sw.completed(me.iter)
		if me.iter > 0 && me.iter < sw.segIters+sw.maxStage() {
			me.imgSWP = ckptSWP{base: sw.base, segIters: sw.segIters, cycles: me.iter,
				batch: int(sw.batch), levels: sw.levels}
			img.swp = &me.imgSWP
		}
	}
	for i, rt := range me.nodes {
		img.nodes[i] = ckptNode{fired: rt.fired, state: rt.state}
		img.firings += rt.fired
	}
	for _, e := range me.G.Edges {
		q := me.queues[e.ID]
		ie := ckptEdge{pushed: me.outRing(e).Pushed, popped: q.Popped}
		if st := me.stage[e.ID]; st != nil && st.Len() > 0 {
			// A skewed barrier mid-segment: the residue follows the queue.
			me.gather[e.ID] = me.edgeItems(me.gather[e.ID][:0], e)
			ie.items = me.gather[e.ID]
		} else {
			ie.items, ie.more = q.Stretches()
		}
		img.edges[e.ID] = ie
	}
	copy(img.pending, sw.pending)
	return img
}

// WriteCheckpoint serializes the engine's execution state at an iteration
// boundary. The engine must have completed a Run or a RestoreCheckpoint
// (steady state quiesced: all workers joined, links drained). On skewed
// plans the recorded iteration is derived from the cycle position (retired
// iterations), superseding the argument.
func (me *MappedEngine) WriteCheckpoint(w io.Writer, iteration int64) error {
	img, err := me.checkpoint(spare(w), iteration)
	if err != nil {
		return err
	}
	_, err = w.Write(img)
	return err
}

// checkpoint is WriteCheckpoint into dst[:0] when that has the room, into a
// fresh slice otherwise.
func (me *MappedEngine) checkpoint(dst []byte, iteration int64) ([]byte, error) {
	if !me.ready {
		return nil, fmt.Errorf("exec: mapped engine has no state to checkpoint; run it (or restore into it) first")
	}
	if me.local != nil && me.iter > 0 {
		// A shard advances only its own partitions; the rest of the graph
		// is stale here. The coordinator assembles full images from the
		// shards' ExportShard slices instead.
		return nil, fmt.Errorf("exec: a sharded engine holds only its local partitions' state; use ExportShard + AssembleShardImage")
	}
	return encodeImage(dst, me.fp, me.image(iteration)), nil
}

// RestoreCheckpoint loads a checkpoint image taken over the same graph and
// schedule (by a mapped or sequential engine), replacing the engine's
// execution state. It returns the logical iteration recorded at checkpoint
// time (the retired-iteration count, for a skewed barrier). On error the
// engine's state is unspecified and it must not be run.
func (me *MappedEngine) RestoreCheckpoint(data []byte) (int64, error) {
	// The constructor already initialized states and topology, and the image
	// supersedes initialization effects: a restore compiles nothing.
	me.ready = true
	if err := me.applyImage(data); err != nil {
		return 0, err
	}
	// Like setup, a restore leaves no rollback target: a drive that needs
	// one takes its own snapshot before its first epoch.
	me.lastImg = me.lastImg[:0]
	return me.swp.base + me.swp.completed(me.iter), nil
}

// applyImage decodes, validates, and installs a checkpoint image.
func (me *MappedEngine) applyImage(data []byte) error {
	img, err := readImage(data, me.fp, len(me.nodes), func(i int) (string, *wfunc.State) {
		return me.nodes[i].node.Name, me.nodes[i].state
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
		if len(msgs) == 0 {
			continue
		}
		if sw.pending == nil {
			return fmt.Errorf("exec: checkpoint carries pending teleport messages for node %d, but this graph has no messaging", i)
		}
	}
	// Field states are already in place (readImage decoded them there);
	// validate every counter before touching anything else.
	for i, rt := range me.nodes {
		in := img.nodes[i]
		if in.fired < me.initFired[i] {
			return fmt.Errorf("exec: checkpoint fired count %d of node %s below its initialization count %d", in.fired, rt.node.Name, me.initFired[i])
		}
		// Gating targets are derived from the segment position, so firing
		// counts must sit exactly on the stage schedule (skewed images) or on
		// a common iteration boundary (uniform images).
		done := img.iteration
		if img.swp != nil {
			done = img.swp.base + img.swp.done(i)
		}
		if want := me.initFired[i] + done*int64(me.Sch.Reps[i]); in.fired != want {
			return fmt.Errorf("exec: checkpoint fired count %d of node %s off the stage schedule (want %d)", in.fired, rt.node.Name, want)
		}
	}
	staged := make([]int, len(me.G.Edges))
	for _, e := range me.G.Edges {
		ie := img.edges[e.ID]
		want := me.initPushed[e.ID] +
			(img.nodes[e.Src.ID].fired-me.initFired[e.Src.ID])*int64(e.Src.PushPort(e.SrcPort))
		if ie.pushed != want {
			return fmt.Errorf("exec: checkpoint edge %s pushed counter %d disagrees with its source's firing count (want %d)", e, ie.pushed, want)
		}
		if img.swp != nil && me.stage[e.ID] != nil {
			// Re-derive the producer's unflushed staging residue from the
			// flush schedule: everything produced since its last flush point
			// (a batch boundary, or the segment's last firing) — whole
			// iterations, each Reps firings of the port's push rate.
			if iseg := img.swp.done(e.Src.ID); iseg < img.swp.segIters {
				staged[e.ID] = int(iseg%int64(img.swp.batch)) * me.Sch.Reps[e.Src.ID] * e.Src.PushPort(e.SrcPort)
			}
			if staged[e.ID] > len(ie.items) {
				return fmt.Errorf("exec: checkpoint edge %s buffers %d items, fewer than its %d-item staging residue", e, len(ie.items), staged[e.ID])
			}
		}
	}
	for i, rt := range me.nodes {
		rt.fired = img.nodes[i].fired
	}
	for _, e := range me.G.Edges {
		ie := img.edges[e.ID]
		split := len(ie.items) - staged[e.ID]
		me.refill(e, ie.pushed, ie.items[:split], ie.items[split:])
	}
	for i := range sw.pending {
		sw.pending[i] = append([]*message(nil), img.pending[i]...)
	}
	switch {
	case img.swp != nil:
		sw.base, sw.segIters = img.swp.base, img.swp.segIters
		me.iter = img.swp.cycles
	case sw.maxStage() == 0:
		// Every barrier of a zero-skew plan is uniform and its one segment
		// starts at iteration 0, so the cycle position is the iteration — of
		// a rollback mid-run as of a foreign image.
		me.iter = img.iteration
		sw.reach(me.iter)
	case sw.segIters > 0 && img.iteration == sw.base:
		// Rollback to the running segment's start barrier.
		me.iter = 0
	case sw.segIters > 0 && img.iteration == sw.base+sw.segIters:
		me.iter = sw.segIters + sw.maxStage()
	default:
		// A foreign uniform image starts a fresh segment here; the next
		// RunFromCheckpoint sets the segment length.
		sw.base, sw.segIters = img.iteration, 0
		me.iter = 0
	}
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
