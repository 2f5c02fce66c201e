// Package machine simulates a Raw-like tiled multicore: a grid of
// single-issue in-order tiles connected by a nearest-neighbour mesh network
// (one word per link per cycle, XY dimension-ordered routing, FIFO link
// arbitration) with DRAM ports on the grid edge. It executes a mapped
// steady-state task graph and reports throughput, per-tile utilization, and
// MFLOPS — the quantities of the paper's evaluation figures.
//
// The simulation is event-driven at the granularity of one node's
// steady-state block (all firings of a node in one steady iteration):
// coarse enough to be fast, fine enough that load imbalance, pipeline
// fill, synchronization barriers, and link/DRAM contention all shape the
// results.
package machine

import (
	"fmt"
)

// Config describes the simulated machine.
type Config struct {
	Rows, Cols int     // grid dimensions (paper: 4x4 = 16 tiles)
	ClockMHz   float64 // paper: 450 MHz, 16 tiles => 7200 peak MFLOPS

	SendCost    int64 // tile-side cycles per word injected into the NoC
	RecvCost    int64 // tile-side cycles per word received
	DRAMCost    int64 // tile-side cycles per word to issue a DRAM transfer
	BarrierCost int64 // cycles to synchronize all tiles (fork/join models)
	LocalCost   int64 // cycles per word for same-tile producer/consumer
	DRAMPorts   int   // independent DRAM ports on the grid edge
}

// DefaultConfig is the 16-tile machine used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		Rows: 4, Cols: 4, ClockMHz: 450,
		SendCost: 1, RecvCost: 1, DRAMCost: 4,
		BarrierCost: 64, LocalCost: 1, DRAMPorts: 8,
	}
}

// Tiles returns the tile count.
func (c Config) Tiles() int { return c.Rows * c.Cols }

// PeakMFLOPS returns the machine's peak floating-point rate (1 FLOP per
// tile per cycle).
func (c Config) PeakMFLOPS() float64 { return c.ClockMHz * float64(c.Tiles()) }

// WNode is one task of the weighted steady-state graph: a (possibly fused
// or fissed) filter, splitter, or joiner, with its statically-estimated
// compute cost per steady iteration.
type WNode struct {
	ID       int
	Name     string
	Work     int64 // cycles per steady iteration
	Flops    int64 // floating-point ops per steady iteration
	Stateful bool
}

// WEdge carries Items words per steady iteration from Src to Dst.
type WEdge struct {
	Src, Dst int
	Items    int64
}

// WGraph is the weighted steady-state task graph.
type WGraph struct {
	Nodes []*WNode
	Edges []*WEdge
}

// AddNode appends a node and returns it.
func (g *WGraph) AddNode(name string, work, flops int64, stateful bool) *WNode {
	n := &WNode{ID: len(g.Nodes), Name: name, Work: work, Flops: flops, Stateful: stateful}
	g.Nodes = append(g.Nodes, n)
	return n
}

// AddEdge connects two nodes.
func (g *WGraph) AddEdge(src, dst *WNode, items int64) *WEdge {
	e := &WEdge{Src: src.ID, Dst: dst.ID, Items: items}
	g.Edges = append(g.Edges, e)
	return e
}

// TotalFlops sums floating-point work per steady iteration.
func (g *WGraph) TotalFlops() int64 {
	var t int64
	for _, n := range g.Nodes {
		t += n.Flops
	}
	return t
}

// TopoOrder returns nodes in dependency order (the weighted graph is
// acyclic: feedback loops are folded into single nodes by the mappers).
func (g *WGraph) TopoOrder() ([]*WNode, error) {
	indeg := make([]int, len(g.Nodes))
	adj := make([][]int, len(g.Nodes))
	for _, e := range g.Edges {
		indeg[e.Dst]++
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	var q []int
	for i, d := range indeg {
		if d == 0 {
			q = append(q, i)
		}
	}
	var order []*WNode
	for len(q) > 0 {
		n := q[0]
		q = q[1:]
		order = append(order, g.Nodes[n])
		for _, m := range adj[n] {
			indeg[m]--
			if indeg[m] == 0 {
				q = append(q, m)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("machine: weighted task graph has a cycle")
	}
	return order, nil
}

// Mode selects the execution discipline of a mapping.
type Mode int

// Execution modes.
const (
	// ModeBarriered executes the graph stage by stage within each steady
	// iteration, with a global barrier between stages — the fork/join
	// discipline of the task-parallel and data-parallel models.
	ModeBarriered Mode = iota
	// ModePipelined decouples producers and consumers across iterations
	// (coarse-grained software pipelining / space multiplexing): after the
	// pipeline fills, every node works on a different iteration.
	ModePipelined
)

// CommKind selects how cross-tile channels move data.
type CommKind int

// Communication substrates.
const (
	// CommNoC streams words over the mesh (the space-multiplexed backend).
	CommNoC CommKind = iota
	// CommDRAM stores and re-loads through edge DRAM ports (the software-
	// pipelined backend, which buffers steady-state data in memory).
	CommDRAM
)

// Mapping assigns each weighted node to a tile and fixes the execution
// discipline.
type Mapping struct {
	Tile  []int // per node
	Stage []int // per node; used by ModeBarriered (usually topo levels)
	Mode  Mode
	Comm  CommKind
}

// Stages computes topo-level stages for barriered execution.
func Stages(g *WGraph) ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	stage := make([]int, len(g.Nodes))
	in := make([][]int, len(g.Nodes))
	for _, e := range g.Edges {
		in[e.Dst] = append(in[e.Dst], e.Src)
	}
	for _, n := range order {
		s := 0
		for _, p := range in[n.ID] {
			if stage[p]+1 > s {
				s = stage[p] + 1
			}
		}
		stage[n.ID] = s
	}
	return stage, nil
}

// Result reports the outcome of a simulation.
type Result struct {
	CyclesPerIter float64
	// Throughput in steady iterations per second at the configured clock.
	ItersPerSec float64
	// Utilization is busy compute cycles / (tiles * elapsed).
	Utilization float64
	MFLOPS      float64
	TileBusy    []int64
	Elapsed     int64
	Iters       int
}

// Speedup returns other's cycles/iter divided by r's (how much faster r is).
func (r *Result) Speedup(base *Result) float64 {
	if r.CyclesPerIter == 0 {
		return 0
	}
	return base.CyclesPerIter / r.CyclesPerIter
}
