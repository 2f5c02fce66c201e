// Package partition implements the parallelization compiler of the paper's
// evaluation: static work estimation, filter fusion (coarsening), stateless
// filter fission (data parallelism, peek-aware), and the mapping strategies
// compared in the experiments —
//
//   - task parallelism (fork/join over split-join children),
//   - fine-grained data parallelism (replicate every stateless filter),
//   - coarse-grained data parallelism (fuse stateless regions, then fiss),
//   - coarse-grained software pipelining (selective fusion + bin-packing),
//   - the combination of data parallelism and software pipelining, and
//   - the prior work's space multiplexing (fuse to one filter per tile).
//
// Each mapper produces a weighted steady-state task graph plus a tile
// mapping for the machine simulator.
package partition

import (
	"fmt"
	"sort"

	"streamit/internal/ir"
	"streamit/internal/machine"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
)

// routerCost is the estimated cycles a splitter/joiner spends per item
// routed (address bookkeeping plus a word copy).
const routerCost = 3

// pnode is a mutable partitioning node: one or more original flat-graph
// nodes (fusion) or a replica slice of one (fission).
type pnode struct {
	id       int
	name     string
	work     int64 // cycles per steady iteration
	flops    int64
	stateful bool
	peeking  bool
	io       bool  // unfusable, unfissable endpoint (file reader/writer)
	router   bool  // splitter/joiner
	margin   int64 // extra words duplicated per replica when fissed
	count    int   // original filters folded in
}

// PGraph is the mutable weighted partitioning graph.
type PGraph struct {
	nodes  map[int]*pnode
	edges  map[[2]int]int64 // (src,dst) -> words per steady iteration
	nextID int
}

// Build derives the weighted steady-state graph from a scheduled flat
// graph, weighted by steadyWork.
func Build(g *ir.Graph, s *sched.Schedule) (*PGraph, error) {
	p := &PGraph{nodes: map[int]*pnode{}, edges: map[[2]int]int64{}}
	work := steadyWork(g, s, nil, nil)
	for _, n := range g.Nodes {
		pn := &pnode{id: n.ID, name: n.Name, count: 1, work: work[n.ID]}
		switch n.Kind {
		case ir.NodeFilter:
			k := n.Filter.Kernel
			pn.flops = wfunc.EstimateKernel(k).Flops * int64(s.Reps[n.ID])
			pn.stateful = n.IsStateful()
			pn.peeking = n.IsPeeking()
			pn.margin = int64(k.Peek - k.Pop)
			pn.io = n.IsSource() || n.IsSink()
			if pn.io {
				// File readers/writers are not mapped to compute tiles
				// (steadyWork charges them no cycles either).
				pn.flops = 0
				pn.stateful = false
			}
		default:
			pn.router = true
		}
		p.nodes[n.ID] = pn
		if n.ID >= p.nextID {
			p.nextID = n.ID + 1
		}
	}
	for _, e := range g.Edges {
		items := int64(s.ItemsPerSteady(e))
		p.edges[[2]int{e.Src.ID, e.Dst.ID}] += items
	}
	// Collapse feedback loops into single (stateful) nodes: the weighted
	// task graph must be acyclic, and a loop's iterations are serialized by
	// its data dependence anyway, so it executes on one tile.
	alias := map[int]int{}
	find := func(id int) int {
		for {
			a, ok := alias[id]
			if !ok {
				return id
			}
			id = a
		}
	}
	for _, e := range g.Edges {
		if !e.Back {
			continue
		}
		members := []int{e.Dst.ID, e.Src.ID}
		for _, n := range g.Nodes {
			if n.ID == e.Dst.ID || n.ID == e.Src.ID {
				continue
			}
			if g.Downstream(e.Dst, n) && g.Downstream(n, e.Src) {
				members = append(members, n.ID)
			}
		}
		target := find(members[0])
		for _, id := range members[1:] {
			b := find(id)
			if b == target {
				continue
			}
			p.absorb(target, b)
			alias[b] = target
		}
		p.nodes[target].stateful = true
		p.nodes[target].name = "loop(" + p.nodes[target].name + ")"
	}
	return p, nil
}

// absorb merges node b into node a unconditionally, dropping any resulting
// self edges (used to collapse feedback cycles).
func (p *PGraph) absorb(a, b int) {
	na, nb := p.nodes[a], p.nodes[b]
	na.work += nb.work
	na.flops += nb.flops
	na.stateful = na.stateful || nb.stateful
	na.peeking = na.peeking || nb.peeking
	na.io = na.io || nb.io
	na.router = na.router && nb.router
	na.count += nb.count
	for k, v := range p.edges {
		if k[0] != b && k[1] != b {
			continue
		}
		delete(p.edges, k)
		src, dst := k[0], k[1]
		if src == b {
			src = a
		}
		if dst == b {
			dst = a
		}
		if src != dst {
			p.edges[[2]int{src, dst}] += v
		}
	}
	delete(p.nodes, b)
}

// scaleSteady multiplies every node's work and every edge's traffic by f:
// the graph then represents f original steady-state iterations as one
// macro-iteration, so fission always has whole items to distribute.
func (p *PGraph) scaleSteady(f int64) {
	for _, n := range p.nodes {
		n.work *= f
		n.flops *= f
	}
	for k := range p.edges {
		p.edges[k] *= f
	}
}

// clone deep-copies the graph so each mapper transforms independently.
func (p *PGraph) clone() *PGraph {
	c := &PGraph{nodes: map[int]*pnode{}, edges: map[[2]int]int64{}, nextID: p.nextID}
	for id, n := range p.nodes {
		cp := *n
		c.nodes[id] = &cp
	}
	for k, v := range p.edges {
		c.edges[k] = v
	}
	return c
}

// TotalWork sums compute cycles per steady iteration.
func (p *PGraph) TotalWork() int64 {
	var t int64
	for _, n := range p.nodes {
		t += n.work
	}
	return t
}

// StatefulWork returns the fraction of steady-state work performed by
// stateful filters (the paper's final benchmark-table column).
func (p *PGraph) StatefulWork() float64 {
	var t, s int64
	for _, n := range p.nodes {
		if n.router || n.io {
			continue
		}
		t += n.work
		if n.stateful {
			s += n.work
		}
	}
	if t == 0 {
		return 0
	}
	return float64(s) / float64(t)
}

// CompCommRatio returns the static computation-to-communication ratio:
// total estimated cycles divided by items communicated per steady state.
func (p *PGraph) CompCommRatio() float64 {
	var comm int64
	for _, v := range p.edges {
		comm += v
	}
	if comm == 0 {
		return 0
	}
	return float64(p.TotalWork()) / float64(comm)
}

func (p *PGraph) outEdges(id int) [][2]int {
	var out [][2]int
	for k := range p.edges {
		if k[0] == id {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][1] < out[j][1] })
	return out
}

func (p *PGraph) inEdges(id int) [][2]int {
	var in [][2]int
	for k := range p.edges {
		if k[1] == id {
			in = append(in, k)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i][0] < in[j][0] })
	return in
}

// reachable reports whether dst is reachable from src, optionally skipping
// the direct edge (src,dst).
func (p *PGraph) reachable(src, dst int, skipDirect bool) bool {
	seen := map[int]bool{}
	var stack []int
	push := func(id int) {
		if !seen[id] {
			seen[id] = true
			stack = append(stack, id)
		}
	}
	for k := range p.edges {
		if k[0] == src {
			if k[1] == dst && skipDirect {
				continue
			}
			push(k[1])
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == dst {
			return true
		}
		for k := range p.edges {
			if k[0] == n {
				push(k[1])
			}
		}
	}
	return false
}

// fuse merges node b into node a (they must be connected and fusion must
// not create a cycle). Internal traffic disappears (it becomes local
// buffer reuse inside the fused filter).
func (p *PGraph) fuse(a, b int) error {
	na, nb := p.nodes[a], p.nodes[b]
	if na == nil || nb == nil {
		return fmt.Errorf("partition: fusing missing node")
	}
	// Cycle check: any indirect path between them forbids fusion.
	if p.reachable(a, b, true) || p.reachable(b, a, true) {
		return fmt.Errorf("partition: fusing %s and %s would create a cycle", na.name, nb.name)
	}
	na.work += nb.work
	na.flops += nb.flops
	na.stateful = na.stateful || nb.stateful
	na.peeking = na.peeking || nb.peeking
	na.io = na.io || nb.io
	na.router = na.router && nb.router
	na.margin += nb.margin
	na.count += nb.count
	na.name = na.name + "+" + nb.name
	for k, v := range p.edges {
		if k[0] == b {
			delete(p.edges, k)
			if k[1] != a {
				p.edges[[2]int{a, k[1]}] += v
			}
		} else if k[1] == b {
			delete(p.edges, k)
			if k[0] != a {
				p.edges[[2]int{k[0], a}] += v
			}
		}
	}
	delete(p.nodes, b)
	return nil
}

// fissable reports whether a node can be data-parallelized.
func (n *pnode) fissable() bool {
	return !n.stateful && !n.io && !n.router && n.work > 0
}

// fiss replaces node id with k replicas, each doing 1/k of the work.
// Producers scatter to all replicas and consumers gather from all; peeking
// nodes pay the duplicated window margin on each replica's input.
func (p *PGraph) fiss(id, k int) error {
	n := p.nodes[id]
	if n == nil {
		return fmt.Errorf("partition: fissing missing node %d", id)
	}
	if !n.fissable() {
		return fmt.Errorf("partition: node %s is not fissable", n.name)
	}
	if k <= 1 {
		return nil
	}
	ins := p.inEdges(id)
	outs := p.outEdges(id)
	for r := 0; r < k; r++ {
		rid := p.nextID
		p.nextID++
		p.nodes[rid] = &pnode{
			id: rid, name: fmt.Sprintf("%s/f%d", n.name, r),
			work: n.work / int64(k), flops: n.flops / int64(k),
			margin: n.margin, count: 0,
		}
		for _, e := range ins {
			p.edges[[2]int{e[0], rid}] = p.edges[e]/int64(k) + n.margin
		}
		for _, e := range outs {
			p.edges[[2]int{rid, e[1]}] = p.edges[e] / int64(k)
		}
	}
	for _, e := range ins {
		delete(p.edges, e)
	}
	for _, e := range outs {
		delete(p.edges, e)
	}
	delete(p.nodes, id)
	return nil
}

// sortedIDs returns node IDs in ascending order for determinism.
func (p *PGraph) sortedIDs() []int {
	ids := make([]int, 0, len(p.nodes))
	for id := range p.nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// emit converts the partitioning graph into a machine weighted graph,
// returning also the id->index map.
func (p *PGraph) emit() (*machine.WGraph, map[int]int, error) {
	g := &machine.WGraph{}
	idx := map[int]int{}
	for _, id := range p.sortedIDs() {
		n := p.nodes[id]
		wn := g.AddNode(n.name, n.work, n.flops, n.stateful)
		idx[id] = wn.ID
	}
	keys := make([][2]int, 0, len(p.edges))
	for k := range p.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		g.AddEdge(g.Nodes[idx[k[0]]], g.Nodes[idx[k[1]]], p.edges[k])
	}
	if _, err := g.TopoOrder(); err != nil {
		return nil, nil, err
	}
	return g, idx, nil
}
