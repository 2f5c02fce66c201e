package partition

import (
	"fmt"
	"sort"

	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// Shard-aware assignment: the distributed runtime packs one exec plan
// onto shards × perShard workers in two LPT levels — nodes onto shards
// first (minimizing the per-shard bottleneck, which is what bounds a
// lockstep epoch), then each shard's nodes onto its local workers.
// Worker numbering is global and contiguous per shard: worker w runs on
// shard w/perShard, so the same assignment drives every shard's engine
// (each masks its own worker range via Options.LocalWorkers) and the
// coordinator's bookkeeping. Like AssignMeasured this re-packs
// the SAME rewritten graph — the fingerprint never changes, which is what
// lets crash recovery move a dead shard's partitions onto survivors and
// restore the last barrier image unchanged.

// nodeWeights estimates per-node steady-iteration work for LPT packing:
// plan work estimates (or kernel cost estimates) scaled by repetitions
// for filters, router cost for splitters/joiners, and — when live
// measurements are supplied — measured per-firing nanoseconds rescaled
// into the static estimate's unit so measured and unmeasured nodes stay
// comparable. Every node weighs at least 1 so zero-work endpoints still
// spread across workers.
func (p *ExecPlan) nodeWeights(g2 *ir.Graph, s2 *sched.Schedule, perFiringNS map[string]int64) []int64 {
	nodeW := make([]int64, len(g2.Nodes))
	for _, n := range g2.Nodes {
		var w int64
		switch n.Kind {
		case ir.NodeFilter:
			if n.IsSource() || n.IsSink() {
				w = 0
			} else if pf, ok := p.Work[n.Filter]; ok {
				w = pf * int64(s2.Reps[n.ID])
			} else {
				c := wfunc.EstimateKernel(n.Filter.Kernel)
				w = c.Cycles * int64(s2.Reps[n.ID])
			}
		default:
			items := int64(n.TotalPop()+n.TotalPush()) * int64(s2.Reps[n.ID]) / 2
			w = items * routerCost
		}
		if w < 1 {
			w = 1 // zero-work endpoints still spread across workers
		}
		nodeW[n.ID] = w
	}
	if len(perFiringNS) > 0 {
		var sumStatic, sumNS float64
		for _, n := range g2.Nodes {
			if n.Kind != ir.NodeFilter || n.IsSource() || n.IsSink() {
				continue
			}
			if ns, ok := perFiringNS[n.Name]; ok && ns > 0 {
				sumStatic += float64(nodeW[n.ID])
				sumNS += float64(ns) * float64(s2.Reps[n.ID])
			}
		}
		if sumStatic > 0 && sumNS > 0 {
			scale := sumStatic / sumNS
			for _, n := range g2.Nodes {
				if n.Kind != ir.NodeFilter || n.IsSource() || n.IsSink() {
					continue
				}
				if ns, ok := perFiringNS[n.Name]; ok && ns > 0 {
					w := int64(float64(ns) * float64(s2.Reps[n.ID]) * scale)
					if w < 1 {
						w = 1
					}
					nodeW[n.ID] = w
				}
			}
		}
	}
	return nodeW
}

// AssignSharded packs the rewritten graph onto shards × perShard global
// workers in two LPT levels (shards first, then each shard's local
// workers), optionally weighting by live measured work. Only lockstep
// plans shard — pipelined stage skew would need cross-shard cycle gating.
func (p *ExecPlan) AssignSharded(g2 *ir.Graph, s2 *sched.Schedule, shards, perShard int, perFiringNS map[string]int64) ([]int, error) {
	if p.Pipelined {
		return nil, fmt.Errorf("partition: pipelined plans cannot shard; use a lockstep strategy")
	}
	if shards < 1 || perShard < 1 {
		return nil, fmt.Errorf("partition: sharded assignment wants >= 1 shards and workers per shard, got %d x %d", shards, perShard)
	}
	// Level 1: nodes onto shards. AssignMeasured's LPT minimizes the
	// heaviest shard, which bounds the lockstep epoch's critical path.
	byShard := p.AssignMeasured(g2, s2, shards, perFiringNS)
	nodeW := p.nodeWeights(g2, s2, perFiringNS)

	// Level 2: within each shard, the same LPT over its own nodes.
	assign := make([]int, len(g2.Nodes))
	for sh := 0; sh < shards; sh++ {
		var ids []int
		for id, s := range byShard {
			if s == sh {
				ids = append(ids, id)
			}
		}
		sort.SliceStable(ids, func(i, j int) bool { return nodeW[ids[i]] > nodeW[ids[j]] })
		loads := make([]int64, perShard)
		for _, id := range ids {
			best := 0
			for w := 1; w < perShard; w++ {
				if loads[w] < loads[best] {
					best = w
				}
			}
			assign[id] = sh*perShard + best
			loads[best] += nodeW[id]
		}
	}
	return assign, nil
}
