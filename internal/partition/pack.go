package partition

import (
	"fmt"
	"sort"

	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// Placement: one weight per node, one greedy bin-packing. Every mapping in
// the package — an exec plan's initial worker assignment, its lowering onto
// the simulator's tiles, and every re-pack of it (crash recovery, the
// elastic controller, a distributed fleet and its recovery) — is lpt over
// steadyWork.

// SteadyWork is the static estimate of each node's cycles per steady
// iteration, indexed by node ID: the weights every plan packs by.
func SteadyWork(g *ir.Graph, s *sched.Schedule) []int64 { return steadyWork(g, s, nil, nil) }

// steadyWork estimates each node's work per steady iteration, indexed by
// node ID: for filters the IL estimator's cycles per firing (override's,
// for the filters it covers — a plan's fused segments and fission replicas)
// times repetitions, for splitters and joiners routerCost per item routed.
// File readers and writers stream from the DRAM ports in the paper's setup:
// they contribute traffic but no cycles.
//
// measured, when non-nil, holds each node's measured work over a span all
// nodes share (one profile window, or nanoseconds per firing times
// repetitions); entries <= 0 are unmeasured. The filters it covers take
// their measured share of the covered set's total static estimate, so the
// total stays on the estimator's cycle scale — measured and estimated nodes
// pack on one scale, and the machine model's compute/communication
// calibration is preserved — while the distribution between filters shifts
// to the measured proportions.
func steadyWork(g *ir.Graph, s *sched.Schedule, override map[*ir.Filter]int64, measured []int64) []int64 {
	work := make([]int64, len(g.Nodes))
	covered := make([]bool, len(g.Nodes))
	var sumStatic, sumMeasured float64
	for _, n := range g.Nodes {
		reps := int64(s.Reps[n.ID])
		switch {
		case n.Kind != ir.NodeFilter:
			work[n.ID] = int64(n.TotalPop()+n.TotalPush()) * reps / 2 * routerCost
		case n.IsSource() || n.IsSink():
		default:
			perFiring, ok := override[n.Filter]
			if !ok {
				perFiring = wfunc.EstimateKernel(n.Filter.Kernel).Cycles
			}
			work[n.ID] = perFiring * reps
			if measured != nil && measured[n.ID] > 0 {
				covered[n.ID] = true
				sumStatic += float64(work[n.ID])
				sumMeasured += float64(measured[n.ID])
			}
		}
	}
	if sumStatic <= 0 || sumMeasured <= 0 {
		return work
	}
	scale := sumStatic / sumMeasured
	for id, ok := range covered {
		if ok {
			work[id] = max(int64(float64(measured[id])*scale), 1)
		}
	}
	return work
}

// lpt is the placement step: longest-processing-time-first greedy
// bin-packing. Items are taken heaviest first — stable, so equal weights
// keep their given order — and each goes to the least-loaded bin, the
// lowest-numbered one on ties. It returns every item's bin.
func lpt(weights []int64, bins int) []int {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	load := make([]int64, bins)
	bin := make([]int, len(weights))
	for _, i := range order {
		best := 0
		for b := 1; b < bins; b++ {
			if load[b] < load[best] {
				best = b
			}
		}
		bin[i] = best
		load[best] += weights[i]
	}
	return bin
}

// Topology is the worker grid an assignment targets: Shards processes of
// PerShard workers each. Worker numbering is global and contiguous per
// shard — worker w runs on shard w/PerShard — so one assignment drives
// every shard's engine (each masks its own range via
// exec.Options.LocalWorkers) and the coordinator's bookkeeping. A single
// process is workers × 1.
type Topology struct {
	Shards, PerShard int
}

// Assign maps every node of the rewritten flat graph onto the plan's own
// worker count by its static work estimates. g2 and s2 must be the
// flattening and schedule of plan.Program; the result is nil if that graph
// cannot be staged (Pack reports why).
func (p *ExecPlan) Assign(g2 *ir.Graph, s2 *sched.Schedule) []int {
	assign, _ := p.Pack(g2, s2, Topology{Shards: p.Workers, PerShard: 1}, nil)
	return assign
}

// Pack is the one assignment entry point: it packs the rewritten graph onto
// a topology in two lpt levels — onto shards first (minimizing the heaviest
// shard, which bounds a lockstep epoch), then each shard's share onto its
// local workers. It never re-runs the fusion/fission rewrite, so the
// elaborated graph, its schedule, and therefore the checkpoint fingerprint
// all stay fixed and only the packing moves: that is what lets crash
// recovery move a dead worker's or shard's partitions onto the survivors
// and restore the last barrier image unchanged. measured is steadyWork's
// (nil packs by the plan's static estimates; the elastic controller passes
// a profile window). Every node weighs at least 1, so zero-work endpoints
// still spread across workers, and stage clusters (feedback cycles,
// messaging hulls) pack as one unit at both levels: their members must fire
// together on one worker.
func (p *ExecPlan) Pack(g2 *ir.Graph, s2 *sched.Schedule, topo Topology, measured []int64) ([]int, error) {
	if topo.Shards < 1 || topo.PerShard < 1 {
		return nil, fmt.Errorf("partition: assignment wants >= 1 shards and workers per shard, got %d x %d", topo.Shards, topo.PerShard)
	}
	if measured != nil && len(measured) != len(g2.Nodes) {
		return nil, fmt.Errorf("partition: measured work covers %d of %d nodes", len(measured), len(g2.Nodes))
	}
	sp, err := PipelineStages(g2)
	if err != nil {
		return nil, err
	}
	units := append([][]int(nil), sp.Clusters...)
	for id := range g2.Nodes {
		if sp.ClusterOf[id] < 0 {
			units = append(units, []int{id})
		}
	}
	work := steadyWork(g2, s2, p.Work, measured)
	weights := make([]int64, len(units))
	for i, members := range units {
		for _, id := range members {
			weights[i] += max(work[id], 1)
		}
	}
	assign := make([]int, len(g2.Nodes))
	shardOf := lpt(weights, topo.Shards)
	for sh := 0; sh < topo.Shards; sh++ {
		var mine []int
		var mineW []int64
		for i, s := range shardOf {
			if s == sh {
				mine, mineW = append(mine, i), append(mineW, weights[i])
			}
		}
		for j, local := range lpt(mineW, topo.PerShard) {
			for _, id := range units[mine[j]] {
				assign[id] = sh*topo.PerShard + local
			}
		}
	}
	return assign, nil
}
