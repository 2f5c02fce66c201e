package partition

import (
	"fmt"
	"sort"

	"streamit/internal/machine"
)

// Strategy names the mapping strategies of the evaluation.
type Strategy string

// The compared strategies.
const (
	StratSequential Strategy = "sequential"
	StratTask       Strategy = "task"
	StratFineData   Strategy = "fine-grained data"
	StratCoarseData Strategy = "task+data"
	StratSWP        Strategy = "task+swp"
	StratCombined   Strategy = "task+data+swp"
	StratSpace      Strategy = "space (prior work)"
)

// Pipelined reports whether the strategy produces stage-assigned
// software-pipelined execution plans (BuildExecPlan sets ExecPlan.Pipelined
// and the mapped engine runs stage-skewed macro-cycles).
func (s Strategy) Pipelined() bool { return s == StratSWP || s == StratCombined }

// Plan is a mapped, weighted steady-state graph ready for simulation.
type Plan struct {
	Strategy Strategy
	Graph    *machine.WGraph
	Mapping  *machine.Mapping
	// Scale is the number of original steady iterations represented by one
	// macro-iteration of Graph (fission-based mappers scale up so replicas
	// receive whole items).
	Scale int
}

// Simulate runs the plan on the machine and normalizes the result back to
// original steady-state iterations.
func (pl *Plan) Simulate(cfg machine.Config, iters int) (*machine.Result, error) {
	res, err := machine.Simulate(pl.Graph, pl.Mapping, cfg, iters)
	if err != nil {
		return nil, err
	}
	if pl.Scale > 1 {
		res.CyclesPerIter /= float64(pl.Scale)
		res.ItersPerSec *= float64(pl.Scale)
	}
	return res, nil
}

// Map applies a strategy to the partitioning graph for a machine with the
// given tile count.
func (p *PGraph) Map(s Strategy, tiles int) (*Plan, error) {
	switch s {
	case StratSequential:
		return p.sequential()
	case StratTask:
		return p.taskParallel(tiles)
	case StratFineData:
		return p.fineGrainedData(tiles)
	case StratCoarseData:
		return p.coarseData(tiles)
	case StratSWP:
		return p.softwarePipelined(tiles)
	case StratCombined:
		return p.combined(tiles)
	case StratSpace:
		return p.spaceMultiplexed(tiles)
	}
	return nil, errUnknownStrategy(s)
}

type errUnknownStrategy Strategy

func (e errUnknownStrategy) Error() string { return "partition: unknown strategy " + string(e) }

// sequential places every node on tile 0 (the single-core baseline).
func (p *PGraph) sequential() (*Plan, error) {
	g, _, err := p.clone().emit()
	if err != nil {
		return nil, err
	}
	st, err := machine.Stages(g)
	if err != nil {
		return nil, err
	}
	m := &machine.Mapping{
		Tile:  make([]int, len(g.Nodes)),
		Stage: st,
		Mode:  machine.ModePipelined,
		Comm:  machine.CommNoC,
	}
	return &Plan{Strategy: StratSequential, Graph: g, Mapping: m}, nil
}

// taskParallel exploits only fork/join parallelism across split-join
// children: the graph is untransformed, stages execute sequentially with
// barriers, and nodes within a stage are load-balanced across tiles.
func (p *PGraph) taskParallel(tiles int) (*Plan, error) {
	g, _, err := p.clone().emit()
	if err != nil {
		return nil, err
	}
	m, err := barrieredLPT(g, tiles)
	if err != nil {
		return nil, err
	}
	return &Plan{Strategy: StratTask, Graph: g, Mapping: m}, nil
}

// fineGrainedData replicates every stateless filter across all tiles
// without coarsening first — the strawman showing that fission granularity
// must account for synchronization.
func (p *PGraph) fineGrainedData(tiles int) (*Plan, error) {
	c := p.clone()
	c.scaleSteady(int64(8 * tiles))
	for _, id := range c.sortedIDs() {
		n := c.nodes[id]
		if n.fissable() {
			if err := c.fiss(id, tiles); err != nil {
				return nil, err
			}
		}
	}
	g, _, err := c.emit()
	if err != nil {
		return nil, err
	}
	m, err := barrieredLPT(g, tiles)
	if err != nil {
		return nil, err
	}
	return &Plan{Strategy: StratFineData, Graph: g, Mapping: m, Scale: 8 * tiles}, nil
}

// coarsen fuses contiguous stateless, non-peeking, non-I/O regions so that
// later fission operates at coarse granularity (reducing synchronization).
func (p *PGraph) coarsen() {
	fusable := func(n *pnode) bool {
		return n != nil && !n.stateful && !n.peeking && !n.io
	}
	for {
		progress := false
		for _, id := range p.sortedIDs() {
			n := p.nodes[id]
			if !fusable(n) {
				continue
			}
			for _, e := range p.outEdges(id) {
				m := p.nodes[e[1]]
				if !fusable(m) {
					continue
				}
				if err := p.fuse(id, e[1]); err == nil {
					progress = true
					break
				}
			}
			if progress {
				break
			}
		}
		if !progress {
			return
		}
	}
}

// coarseData is the paper's main technique: coarsen stateless regions, then
// fiss every fissable node across the tiles; barriered execution.
func (p *PGraph) coarseData(tiles int) (*Plan, error) {
	c := p.clone()
	c.scaleSteady(int64(8 * tiles))
	c.coarsen()
	if err := c.fissAll(tiles); err != nil {
		return nil, err
	}
	g, _, err := c.emit()
	if err != nil {
		return nil, err
	}
	m, err := barrieredLPT(g, tiles)
	if err != nil {
		return nil, err
	}
	return &Plan{Strategy: StratCoarseData, Graph: g, Mapping: m, Scale: 8 * tiles}, nil
}

// fissAll fisses every fissable node whose work justifies replication.
func (p *PGraph) fissAll(tiles int) error {
	total := p.TotalWork()
	for _, id := range p.sortedIDs() {
		n := p.nodes[id]
		if n == nil || !n.fissable() {
			continue
		}
		// Judicious fission: replicate so each replica still carries
		// meaningful work relative to the synchronization it adds.
		k := tiles
		if n.work < total/int64(4*tiles) {
			continue // too small to be worth scattering
		}
		for k > 1 && n.work/int64(k) < 256 {
			k /= 2
		}
		if k > 1 {
			if err := p.fiss(id, k); err != nil {
				return err
			}
		}
	}
	return nil
}

// softwarePipelined implements coarse-grained software pipelining:
// selective fusion down to a manageable node count, then greedy
// load-balanced bin-packing ignoring dependences (the steady state is
// dependence-free across iterations), executing in pipelined mode with
// DRAM-buffered channels.
func (p *PGraph) softwarePipelined(tiles int) (*Plan, error) {
	c := p.clone()
	c.selectiveFusion(4 * tiles)
	g, _, err := c.emit()
	if err != nil {
		return nil, err
	}
	m, err := packedPipelined(g, tiles, machine.CommDRAM)
	if err != nil {
		return nil, err
	}
	return &Plan{Strategy: StratSWP, Graph: g, Mapping: m}, nil
}

// combined applies coarse-grained data parallelism and then software
// pipelines the result.
func (p *PGraph) combined(tiles int) (*Plan, error) {
	c := p.clone()
	c.scaleSteady(int64(8 * tiles))
	c.coarsen()
	if err := c.fissAll(tiles); err != nil {
		return nil, err
	}
	g, _, err := c.emit()
	if err != nil {
		return nil, err
	}
	m, err := packedPipelined(g, tiles, machine.CommDRAM)
	if err != nil {
		return nil, err
	}
	return &Plan{Strategy: StratCombined, Graph: g, Mapping: m, Scale: 8 * tiles}, nil
}

// selectiveFusion greedily fuses the lightest chain-connected pairs until
// at most target nodes remain (reducing synchronization while keeping
// load-balance options).
func (p *PGraph) selectiveFusion(target int) {
	for len(p.nodes) > target {
		// Find the chain edge (single-out producer, single-in consumer)
		// whose fusion yields the lightest combined node.
		bestA, bestB := -1, -1
		var bestW int64
		for _, id := range p.sortedIDs() {
			n := p.nodes[id]
			if n.io {
				continue
			}
			outs := p.outEdges(id)
			if len(outs) != 1 {
				continue
			}
			b := outs[0][1]
			m := p.nodes[b]
			if m.io || len(p.inEdges(b)) != 1 {
				continue
			}
			w := n.work + m.work
			if bestA == -1 || w < bestW {
				bestA, bestB, bestW = id, b, w
			}
		}
		if bestA == -1 {
			return
		}
		if err := p.fuse(bestA, bestB); err != nil {
			return
		}
	}
}

// spaceMultiplexed reproduces the prior work's backend: fuse the graph to
// at most one node per tile (contiguous regions), place one per tile, and
// stream between neighbours over the NoC.
func (p *PGraph) spaceMultiplexed(tiles int) (*Plan, error) {
	c := p.clone()
	c.selectiveFusion(tiles)
	// selectiveFusion only merges chains. The prior-work partitioner works
	// on the structured hierarchy: when a split-join is too wide, adjacent
	// sibling branches get fused together — sacrificing load balance, since
	// a fused pair then does twice the work of its siblings. Emulate that
	// by merging the lightest sibling pair first, falling back to any legal
	// edge-connected fusion.
	for len(c.nodes) > tiles {
		if c.fuseLightestSiblings() {
			continue
		}
		if !c.fuseAnyLegal() {
			break
		}
	}
	g, _, err := c.emit()
	if err != nil {
		return nil, err
	}
	st, err := machine.Stages(g)
	if err != nil {
		return nil, err
	}
	m := &machine.Mapping{
		Tile:  make([]int, len(g.Nodes)),
		Stage: st,
		Mode:  machine.ModePipelined,
		Comm:  machine.CommNoC,
	}
	// Layout: order nodes topologically and snake them across the grid so
	// pipeline neighbours are mesh neighbours.
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	for i, n := range order {
		m.Tile[n.ID] = snakeTile(i%tiles, tiles)
	}
	return &Plan{Strategy: StratSpace, Graph: g, Mapping: m}, nil
}

// fuseAnyLegal fuses the lightest edge-connected pair that does not create
// a cycle; returns false when none exists.
func (p *PGraph) fuseAnyLegal() bool {
	type cand struct {
		a, b int
		w    int64
	}
	var cands []cand
	for k := range p.edges {
		a, b := p.nodes[k[0]], p.nodes[k[1]]
		if a == nil || b == nil {
			continue
		}
		cands = append(cands, cand{k[0], k[1], a.work + b.work})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w != cands[j].w {
			return cands[i].w < cands[j].w
		}
		if cands[i].a != cands[j].a {
			return cands[i].a < cands[j].a
		}
		return cands[i].b < cands[j].b
	})
	for _, c := range cands {
		if err := p.fuse(c.a, c.b); err == nil {
			return true
		}
	}
	return false
}

// snakeTile maps a linear position to a boustrophedon path over the 4xN
// grid so consecutive positions are mesh neighbours.
func snakeTile(pos, tiles int) int {
	cols := 4
	rows := tiles / cols
	if rows == 0 {
		return pos % tiles
	}
	r := pos / cols
	c := pos % cols
	if r%2 == 1 {
		c = cols - 1 - c
	}
	if r >= rows {
		r = rows - 1
	}
	return r*cols + c
}

// barrieredLPT builds a fork/join mapping: stages are topo levels; within
// each stage, nodes are assigned longest-processing-time-first to the
// least-loaded tile.
func barrieredLPT(g *machine.WGraph, tiles int) (*machine.Mapping, error) {
	st, err := machine.Stages(g)
	if err != nil {
		return nil, err
	}
	// Fork/join execution approximates a thread model: stage results are
	// exchanged through memory, and the barrier prevents overlapping the
	// stores and loads with compute (unlike software pipelining, which
	// decouples them across iterations).
	m := &machine.Mapping{
		Tile:  make([]int, len(g.Nodes)),
		Stage: st,
		Mode:  machine.ModeBarriered,
		Comm:  machine.CommDRAM,
	}
	maxStage := 0
	for _, s := range st {
		if s > maxStage {
			maxStage = s
		}
	}
	for s := 0; s <= maxStage; s++ {
		var ids []int
		var work []int64
		for _, n := range g.Nodes {
			if st[n.ID] == s {
				ids, work = append(ids, n.ID), append(work, n.Work)
			}
		}
		for i, tile := range lpt(work, tiles) {
			m.Tile[ids[i]] = tile
		}
	}
	return m, nil
}

// packedPipelined builds a software-pipelined mapping: all nodes greedily
// bin-packed by work (dependences don't constrain the steady state), with
// the chosen communication substrate.
func packedPipelined(g *machine.WGraph, tiles int, comm machine.CommKind) (*machine.Mapping, error) {
	st, err := machine.Stages(g)
	if err != nil {
		return nil, err
	}
	work := make([]int64, len(g.Nodes))
	for _, n := range g.Nodes {
		work[n.ID] = n.Work
	}
	return &machine.Mapping{
		Tile:  lpt(work, tiles),
		Stage: st,
		Mode:  machine.ModePipelined,
		Comm:  comm,
	}, nil
}

// fuseLightestSiblings merges the lightest pair of sibling nodes — nodes
// sharing identical producer and consumer sets (parallel branches of the
// same split-join). Parallel siblings cannot form a cycle, so they are
// absorbed unconditionally. Returns false when no siblings exist.
func (p *PGraph) fuseLightestSiblings() bool {
	type key struct{ ins, outs string }
	groups := map[key][]int{}
	for _, id := range p.sortedIDs() {
		n := p.nodes[id]
		if n.io {
			continue
		}
		var ins, outs string
		for _, e := range p.inEdges(id) {
			ins += fmt.Sprintf("%d,", e[0])
		}
		for _, e := range p.outEdges(id) {
			outs += fmt.Sprintf("%d,", e[1])
		}
		if ins == "" && outs == "" {
			continue
		}
		groups[key{ins, outs}] = append(groups[key{ins, outs}], id)
	}
	bestA, bestB := -1, -1
	var bestW int64
	for _, ids := range groups {
		if len(ids) < 2 {
			continue
		}
		sort.Slice(ids, func(i, j int) bool { return p.nodes[ids[i]].work < p.nodes[ids[j]].work })
		a, b := ids[0], ids[1]
		w := p.nodes[a].work + p.nodes[b].work
		if bestA == -1 || w < bestW {
			bestA, bestB, bestW = a, b, w
		}
	}
	if bestA == -1 {
		return false
	}
	p.absorb(bestA, bestB)
	return true
}
