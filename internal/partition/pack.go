package partition

import (
	"fmt"
	"slices"

	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// Placement: one order, one contiguous cut. The placement units — each
// stage cluster and each node outside one — are listed once in structure
// order (a topological order that keeps every split-join branch together),
// weighted by steadyWork, and that list is cut into consecutive runs whose
// heaviest total is as small as a contiguous cut allows. Every worker then
// holds one stretch of the order, so every cross-worker edge runs from a
// lower-numbered worker to a higher one: the workers form a chain, and an
// edge crosses only where the cut falls. Every mapping in the package — an
// exec plan's initial worker assignment, its lowering onto the simulator's
// tiles, and every re-pack of it (crash recovery, a distributed fleet and
// its recovery) — is this cut.

// SteadyWork is the static estimate of each node's cycles per steady
// iteration, indexed by node ID: the weights every plan packs by.
func SteadyWork(g *ir.Graph, s *sched.Schedule) []int64 { return steadyWork(g, s, nil) }

// steadyWork estimates each node's work per steady iteration, indexed by
// node ID: for filters the IL estimator's cycles per firing (override's,
// for the filters it covers — a plan's fused segments and fission replicas)
// times repetitions, for splitters and joiners routerCost per item routed.
// File readers and writers stream from the DRAM ports in the paper's setup:
// they contribute traffic but no cycles.
func steadyWork(g *ir.Graph, s *sched.Schedule, override map[*ir.Filter]int64) []int64 {
	work := make([]int64, len(g.Nodes))
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
		}
	}
	return work
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
	assign, _ := p.Pack(g2, s2, Topology{Shards: p.Workers, PerShard: 1})
	return assign
}

// Pack is the one assignment entry point: it cuts the rewritten graph's
// structure order onto a topology at two levels of the same cut — into
// shards first (minimizing the heaviest shard, which bounds a lockstep
// epoch), then each shard's run into its local workers — so the global
// worker numbering is one chain across shards too. It never re-runs the
// fusion/fission rewrite, so the elaborated graph, its schedule, and
// therefore the checkpoint fingerprint all stay fixed and only the cut
// moves: that is what lets crash recovery move a dead worker's or shard's
// partitions onto the survivors and restore the last barrier image
// unchanged. The weights are the plan's static estimates (steadyWork):
// every node weighs at least 1, and stage clusters (feedback cycles,
// messaging hulls) are one unit at both levels: their members must fire
// together on one worker. No worker is left empty while there are units
// for it.
func (p *ExecPlan) Pack(g2 *ir.Graph, s2 *sched.Schedule, topo Topology) ([]int, error) {
	if topo.Shards < 1 || topo.PerShard < 1 {
		return nil, fmt.Errorf("partition: assignment wants >= 1 shards and workers per shard, got %d x %d", topo.Shards, topo.PerShard)
	}
	sp, err := PipelineStages(g2)
	if err != nil {
		return nil, err
	}
	units := structureOrder(g2, sp)
	work := steadyWork(g2, s2, p.Work)
	weights := make([]int64, len(units))
	for i, members := range units {
		for _, id := range members {
			weights[i] += max(work[id], 1)
		}
	}
	assign := make([]int, len(g2.Nodes))
	shards := cut(weights, topo.Shards)
	for sh := range topo.Shards {
		lo, hi := shards[sh], shards[sh+1]
		local := cut(weights[lo:hi], topo.PerShard)
		for w := range topo.PerShard {
			for _, members := range units[lo+local[w] : lo+local[w+1]] {
				for _, id := range members {
					assign[id] = sh*topo.PerShard + w
				}
			}
		}
	}
	return assign, nil
}

// structureOrder lists g's placement units — each stage cluster as one
// unit, and each node outside one — in structure order: the reverse
// postorder of a depth-first walk over the forward edges, started from the
// graph's roots last to first and leaving every unit through its out-ports
// last to first. A splitter is therefore followed by its branch 0 whole,
// then branch 1, and so on, and its joiner comes after all of them, so a
// contiguous run of the order holds whole branches wherever it can. Node
// IDs do not serve: a joiner's ID precedes its branches'.
func structureOrder(g *ir.Graph, sp *StagePlan) [][]int {
	unit := func(id int) []int {
		if c := sp.ClusterOf[id]; c >= 0 {
			return sp.Clusters[c]
		}
		return []int{id}
	}
	seen := make([]bool, len(g.Nodes))
	var post [][]int
	var visit func(id int)
	visit = func(id int) {
		members := unit(id)
		for _, m := range members {
			seen[m] = true
		}
		for i := len(members) - 1; i >= 0; i-- {
			out := g.Nodes[members[i]].Out
			for j := len(out) - 1; j >= 0; j-- {
				if e := out[j]; !e.Back && !seen[e.Dst.ID] {
					visit(e.Dst.ID)
				}
			}
		}
		post = append(post, members)
	}
	for id := len(g.Nodes) - 1; id >= 0; id-- {
		if n := g.Nodes[id]; !seen[id] && !slices.ContainsFunc(n.In, func(e *ir.Edge) bool { return !e.Back }) {
			visit(id)
		}
	}
	slices.Reverse(post)
	return post
}

// cut splits weights into bins consecutive runs whose heaviest total is the
// least any contiguous split reaches, and returns the runs' boundaries: run
// b is weights[ends[b]:ends[b+1]]. The bound is found by binary search
// between the heaviest single weight and the total, each probe a greedy
// prefix fill, so the cost is O(n log Σw).
func cut(weights []int64, bins int) []int {
	var lo, hi int64
	for _, w := range weights {
		lo, hi = max(lo, w), hi+w
	}
	lo = max(lo, (hi+int64(bins)-1)/int64(bins))
	for lo < hi {
		if mid := lo + (hi-lo)/2; fill(weights, bins, mid) != nil {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return fill(weights, bins, lo)
}

// fill cuts weights greedily under bound: a run takes units while its total
// stays within bound, but closes early once the units left are only enough
// for one each in the runs still unopened, so no run is empty while there
// are units for it. It returns the bins+1 run boundaries, or nil if the
// units need more than bins runs.
func fill(weights []int64, bins int, bound int64) []int {
	ends := make([]int, 1, bins+1)
	var load int64
	for i, w := range weights {
		if i > ends[len(ends)-1] && (load+w > bound || len(weights)-i <= bins-len(ends)) {
			if len(ends) == bins {
				return nil
			}
			ends, load = append(ends, i), 0
		}
		load += w
	}
	for len(ends) <= bins {
		ends = append(ends, len(weights))
	}
	return ends
}
