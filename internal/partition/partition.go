// Package partition implements the parallelization compiler of the paper's
// evaluation: static work estimation, filter fusion (coarsening), stateless
// filter fission (data parallelism, peek-aware), and the mapping strategies
// compared in the experiments —
//
//   - task parallelism (fork/join over split-join children),
//   - fine-grained data parallelism (replicate every stateless filter),
//   - coarse-grained data parallelism (fuse stateless regions, then fiss),
//   - coarse-grained software pipelining (stage-skewed pipelined workers),
//   - the combination of data parallelism and software pipelining, and
//   - the prior work's space multiplexing (one contiguous region per tile).
//
// There is one partitioner. BuildExecPlan rewrites the program and Pack
// assigns the rewritten graph to workers by cutting one structure order —
// a topological order that keeps split-join branches together — into
// contiguous runs of least maximum work, so the workers form a chain; the
// mapped engines run that plan, and Lower hands the same plan to the
// machine simulator.
package partition

import (
	"fmt"

	"streamit/internal/ir"
	"streamit/internal/machine"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// routerCost is the estimated cycles a splitter/joiner spends per item
// routed (address bookkeeping plus a word copy).
const routerCost = 3

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

// Plan is an exec plan lowered onto the machine simulator: the rewritten
// program's weighted steady-state task graph and its tile mapping.
type Plan struct {
	Strategy Strategy
	Graph    *machine.WGraph
	Mapping  *machine.Mapping
	// Scale is the number of original steady iterations one steady
	// iteration of Graph covers: fission makes the rewritten program's
	// steady state a multiple of the original's.
	Scale int
	// members lists, per Graph node, the rewritten flat graph's node IDs it
	// stands for: one, or every member of a stage cluster.
	members [][]int
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

// Lower maps prog, whose flat graph and schedule are g and s, onto a machine
// of tiles tiles under strat, through the plan the mapped engine runs for
// tiles workers: BuildExecPlan's rewrite, one node per node of the rewritten
// graph weighted by steadyWork, every stage cluster (a feedback loop or a
// teleport hull) contracted into one stateful node, and Pack's assignment as
// the tiles. The two simulation-only strategies map the task plan:
// sequential puts every node on tile 0, and space — the prior work's
// backend, which no engine runs — cuts the topological order into tiles
// runs of equal work laid along the mesh.
func Lower(prog *ir.Program, g *ir.Graph, s *sched.Schedule, strat Strategy, tiles int) (*Plan, error) {
	execStrat := strat
	switch strat {
	case StratSequential, StratSpace:
		execStrat = StratTask
	case StratTask, StratFineData, StratCoarseData, StratSWP, StratCombined:
	default:
		return nil, fmt.Errorf("partition: unknown strategy %q", strat)
	}
	plan, err := BuildExecPlan(prog, g, s, ExecPlanOptions{Strategy: execStrat, Workers: tiles})
	if err != nil {
		return nil, err
	}
	g2, s2 := g, s
	if plan.Program != prog {
		if g2, err = ir.Flatten(plan.Program); err != nil {
			return nil, err
		}
		if s2, err = sched.Compute(g2); err != nil {
			return nil, err
		}
	}
	sp, err := PipelineStages(g2)
	if err != nil {
		return nil, err
	}

	// One simulator node per stage cluster and per node outside one, in
	// order of lowest member.
	unit := make([]int, len(g2.Nodes))
	var members [][]int
	for _, n := range g2.Nodes {
		if c := sp.ClusterOf[n.ID]; c < 0 || sp.Clusters[c][0] == n.ID {
			ids := []int{n.ID}
			if c >= 0 {
				ids = sp.Clusters[c]
			}
			for _, id := range ids {
				unit[id] = len(members)
			}
			members = append(members, ids)
		}
	}
	work := steadyWork(g2, s2, plan.Work)
	wg := &machine.WGraph{}
	for _, ids := range members {
		var w, flops int64
		stateful := len(ids) > 1
		for _, id := range ids {
			n := g2.Nodes[id]
			w += work[id]
			if n.Kind == ir.NodeFilter && !n.IsSource() && !n.IsSink() {
				flops += wfunc.EstimateKernel(n.Filter.Kernel).Flops * int64(s2.Reps[id])
				stateful = stateful || n.IsStateful()
			}
		}
		name := g2.Nodes[ids[0]].Name
		if len(ids) > 1 {
			name = "cluster(" + name + ")"
		}
		wg.AddNode(name, w, flops, stateful)
	}
	between := map[[2]int]*machine.WEdge{}
	for _, e := range g2.Edges {
		a, b := unit[e.Src.ID], unit[e.Dst.ID]
		if a == b {
			continue
		}
		if we := between[[2]int{a, b}]; we != nil {
			we.Items += int64(s2.ItemsPerSteady(e))
			continue
		}
		between[[2]int{a, b}] = wg.AddEdge(wg.Nodes[a], wg.Nodes[b], int64(s2.ItemsPerSteady(e)))
	}

	stages, err := machine.Stages(wg)
	if err != nil {
		return nil, err
	}
	// Fork/join strategies exchange stage results through memory behind a
	// barrier; software pipelining buffers steady-state data in DRAM across
	// iterations; the single core and the space-multiplexed backend stream
	// over the mesh.
	m := &machine.Mapping{Tile: make([]int, len(wg.Nodes)), Stage: stages, Mode: machine.ModeBarriered, Comm: machine.CommDRAM}
	switch {
	case strat == StratSequential:
		m.Mode, m.Comm = machine.ModePipelined, machine.CommNoC
	case strat == StratSpace:
		m.Mode, m.Comm = machine.ModePipelined, machine.CommNoC
		if err := spaceTiles(wg, m.Tile, tiles); err != nil {
			return nil, err
		}
	default:
		if strat.Pipelined() {
			m.Mode = machine.ModePipelined
		}
		assign, err := plan.Pack(g2, s2, Topology{Shards: tiles, PerShard: 1})
		if err != nil {
			return nil, err
		}
		for id, w := range assign {
			m.Tile[unit[id]] = w
		}
	}

	// Any filter the rewrite left alone (every source is one) fires
	// Scale times as often per rewritten steady iteration as per original.
	scale := 1
	for _, n := range g2.Nodes {
		if o := g.FilterNode[n.Filter]; n.Kind == ir.NodeFilter && o != nil {
			scale = s2.Reps[n.ID] / s.Reps[o.ID]
			break
		}
	}
	return &Plan{Strategy: strat, Graph: wg, Mapping: m, Scale: scale, members: members}, nil
}

// spaceTiles is the prior work's layout: the topological order cut into
// tiles contiguous runs of about equal work, snaked across the grid so
// pipeline neighbours are mesh neighbours.
func spaceTiles(g *machine.WGraph, tile []int, tiles int) error {
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	var total, done int64
	for _, n := range order {
		total += n.Work
	}
	for i, n := range order {
		run := i * tiles / len(order)
		if total > 0 {
			run = int(done * int64(tiles) / total)
		}
		done += n.Work
		tile[n.ID] = snakeTile(min(run, tiles-1), tiles)
	}
	return nil
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
