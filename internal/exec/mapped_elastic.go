package exec

import (
	"fmt"
	"slices"
	"sync/atomic"

	"streamit/internal/faults"
	"streamit/internal/ir"
	"streamit/internal/obs"
	"streamit/internal/wfunc"
)

// Elastic runtime re-planning. The mapped engine's epoch barriers are
// exactly the points where PR 5's crash recovery re-plans and rolls back:
// all workers have retired the same iteration, every link is drained,
// and a coordinated checkpoint image of the whole engine state was just
// taken. The elastic controller reuses that machinery for voluntary
// re-plans: a windowed imbalance detector over the profiler's per-node
// work counters (or an explicit Resize request) picks a new assignment —
// over the SAME elaborated graph, so the schedule and checkpoint
// fingerprint never change — rebuilds the worker topology, and restores
// the barrier image onto it. The continuation is bit-identical to an
// uninterrupted run because the restored image IS the uninterrupted run's
// state at that barrier.

// DefaultElasticWindow is the imbalance-observation window in steady
// iterations (macro-cycles on pipelined plans).
const DefaultElasticWindow = 16

// DefaultElasticThreshold is the max/mean per-worker busy-time ratio that
// trips a re-plan.
const DefaultElasticThreshold = 1.25

// elasticImprove is the minimum factor by which a voluntary re-plan must
// cut the predicted bottleneck worker's busy time before the controller
// acts. The max/mean detector can stay tripped forever when hot filters
// are scarcer than workers (one dominant filter keeps max/mean near the
// worker count no matter how the rest are packed), and measurement jitter
// makes the packer emit equivalent-but-different assignments each window;
// without this gate the controller would rebuild the topology at every
// barrier for no throughput gain.
const elasticImprove = 1.10

// elasticState is the replan controller's runtime.
type elasticState struct {
	window    int64
	threshold float64

	// One-shot scheduled resize from Options.ResizeAt/ResizeTo.
	resizeAt int64
	resizeTo int

	// Pending Resize request; 0 means none. Written by Resize (any
	// goroutine), consumed at the next barrier.
	requested atomic.Int64

	win      *obs.WorkWindow
	winStart int64
	replans  int
}

// newElasticState validates and resolves the elastic options.
func newElasticState(opts Options) (*elasticState, error) {
	window := int64(opts.ElasticWindow)
	if window == 0 {
		window = DefaultElasticWindow
	}
	if window < 1 {
		return nil, fmt.Errorf("exec: elastic window %d out of range (want >= 1 iterations)", opts.ElasticWindow)
	}
	threshold := opts.ElasticThreshold
	if threshold == 0 {
		threshold = DefaultElasticThreshold
	}
	if threshold <= 1 {
		return nil, fmt.Errorf("exec: elastic threshold %v out of range (want > 1)", opts.ElasticThreshold)
	}
	if (opts.ResizeAt != 0) != (opts.ResizeTo != 0) {
		return nil, fmt.Errorf("exec: ResizeAt and ResizeTo must be set together")
	}
	if opts.ResizeAt < 0 || opts.ResizeTo < 0 {
		return nil, fmt.Errorf("exec: scheduled resize %d@%d out of range", opts.ResizeTo, opts.ResizeAt)
	}
	return &elasticState{window: window, threshold: threshold,
		resizeAt: opts.ResizeAt, resizeTo: opts.ResizeTo}, nil
}

// Resize requests an elastic re-plan onto n workers, consumed at the next
// coordinated-checkpoint barrier. Safe to call from any goroutine while
// the engine runs (the streamit-serve control plane's entry point).
func (me *MappedEngine) Resize(n int) error {
	if me.elastic == nil {
		return fmt.Errorf("exec: Resize needs Options.Elastic")
	}
	if n < 1 {
		return fmt.Errorf("exec: cannot resize to %d workers", n)
	}
	me.elastic.requested.Store(int64(n))
	return nil
}

// Replans reports how many elastic re-plans the engine has performed.
func (me *MappedEngine) Replans() int {
	if me.elastic == nil {
		return 0
	}
	return me.elastic.replans
}

// elasticReset opens a fresh observation window at the current position
// (called when a drive starts, so earlier runs and the init transient
// never pollute the first sample).
func (me *MappedEngine) elasticReset() {
	es := me.elastic
	es.win = obs.NewWorkWindow(me.prof)
	es.winStart = me.iter
}

// elasticStep runs the replan controller at a checkpoint barrier
// (immediately after the barrier image was snapshotted). It decides
// whether to re-plan — a pending resize request always does; otherwise the
// detector waits for a full window and compares the busiest worker's
// windowed work against the worker mean — and performs the re-plan by
// re-packing the same graph, rebuilding the topology, and restoring the
// just-taken image onto it.
func (me *MappedEngine) elasticStep() error {
	es := me.elastic
	target := me.Workers
	forced := false
	if es.resizeAt > 0 && me.iter >= es.resizeAt && es.resizeTo > 0 {
		target, forced = es.resizeTo, true
		es.resizeAt, es.resizeTo = 0, 0
	}
	if n := es.requested.Swap(0); n > 0 {
		target, forced = int(n), true
	}
	if !forced && me.iter-es.winStart < es.window {
		return nil
	}
	sample := es.win.Advance()
	es.winStart = me.iter
	if !forced && !me.imbalanced(sample) {
		return nil
	}
	assign, err := me.planOnto(target, sample.WorkNS)
	if err != nil {
		return fmt.Errorf("exec: elastic replan at iteration %d: %w", me.iter, err)
	}
	if target == me.Workers && slices.Equal(assign, me.Assign) {
		return nil // already as balanced as the packer can make it
	}
	if !forced {
		cur, _ := busiestNS(me.Assign, me.Workers, sample.WorkNS)
		cand, _ := busiestNS(assign, target, sample.WorkNS)
		if float64(cand)*elasticImprove > float64(cur) {
			return nil // repacking would not meaningfully lift the bottleneck
		}
	}
	if me.rec != nil {
		me.rec.Instant(len(me.G.Nodes), "elastic replan", "replan",
			fmt.Sprintf("iteration %d: %d -> %d workers", me.iter, me.Workers, target))
	}
	if err := me.adopt(target, assign); err != nil {
		return fmt.Errorf("exec: elastic replan at iteration %d: %w", me.iter, err)
	}
	es.replans++
	return nil
}

// busiestNS returns the bottleneck worker's busy time under an assignment,
// and all workers' total, evaluated against one window's measured per-node
// work.
func busiestNS(assign []int, workers int, workNS []int64) (top, sum int64) {
	busy := make([]int64, workers)
	for id, w := range assign {
		if id < len(workNS) {
			busy[w] += workNS[id]
		}
	}
	for _, b := range busy {
		top, sum = max(top, b), sum+b
	}
	return top, sum
}

// imbalanced applies the max/mean detector to one window's per-worker
// busy time.
func (me *MappedEngine) imbalanced(sample obs.WindowSample) bool {
	top, sum := busiestNS(me.Assign, me.Workers, sample.WorkNS)
	mean := float64(sum) / float64(me.Workers)
	return sum > 0 && float64(top) >= me.elastic.threshold*mean
}

// OverrideWork replaces the steady-state work function of every rewritten
// instance of the named filter — the instance itself, or all of its
// fission replicas — for this engine only. The override fires in place of
// the kernel and must honor the kernel's static rates (pop exactly its pop
// rate, push exactly its push rate) so schedules and checkpoints stay
// valid. Filters folded into a fused segment cannot be overridden
// individually; the error names the segment to target instead. The
// sequential shared-artifact engine has the same hook (Engine.OverrideWork);
// this one is what lets benchmarks and tests skew one filter's cost on a
// live mapped topology, e.g. to exercise the elastic replan controller.
func (me *MappedEngine) OverrideWork(name string, fn func(in, out wfunc.Tape)) error {
	matched := 0
	var fusedIn string
	for _, n := range me.G.Nodes {
		if n.Kind != ir.NodeFilter {
			continue
		}
		base := faults.BaseName(n.Name)
		if n.Name == name || base == name {
			me.nodes[n.ID].override = fn
			matched++
			continue
		}
		for _, part := range faults.SplitConstituents(base) {
			if part == name {
				fusedIn = base
			}
		}
	}
	if matched == 0 {
		if fusedIn != "" {
			return fmt.Errorf("exec: override target %q is fused into segment %q; override the segment", name, fusedIn)
		}
		return fmt.Errorf("exec: override target %q is not a filter in the graph", name)
	}
	return nil
}
