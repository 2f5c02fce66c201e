package ir

import (
	"fmt"

	"streamit/internal/wfunc"
)

// TopoOrder returns the nodes in a topological order of the acyclic graph
// obtained by ignoring feedback back-edges. It fails if a cycle remains,
// which indicates a malformed graph (cycles are only legal through
// FeedbackLoop constructs, whose closing edge is marked Back).
func (g *Graph) TopoOrder() ([]*Node, error) {
	indeg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		if e.Back {
			continue
		}
		indeg[e.Dst.ID]++
	}
	var queue []*Node
	for _, n := range g.Nodes {
		if indeg[n.ID] == 0 {
			queue = append(queue, n)
		}
	}
	var order []*Node
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, e := range n.Out {
			if e == nil || e.Back {
				continue
			}
			indeg[e.Dst.ID]--
			if indeg[e.Dst.ID] == 0 {
				queue = append(queue, e.Dst)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("stream graph contains a cycle outside a feedback loop")
	}
	return order, nil
}

// Sinks returns nodes with no outputs.
func (g *Graph) Sinks() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.IsSink() {
			out = append(out, n)
		}
	}
	return out
}

// Downstream reports whether b is reachable from a along data-flow edges
// (including back edges). The paper's min/max transfer functions are only
// defined for such pairs.
func (g *Graph) Downstream(a, b *Node) bool {
	if a == b {
		return false
	}
	seen := make([]bool, len(g.Nodes))
	stack := []*Node{a}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Out {
			if e == nil || seen[e.Dst.ID] {
				continue
			}
			if e.Dst == b {
				return true
			}
			seen[e.Dst.ID] = true
			stack = append(stack, e.Dst)
		}
	}
	return false
}

// Stats are the static per-program characteristics reported in the paper's
// benchmark table (Figure "benchchar").
type Stats struct {
	Filters      int // filter nodes (sources/sinks included, as in the paper)
	Peeking      int // filters with peek > pop
	Stateful     int // filters whose work writes fields
	ShortestPath int // nodes on the shortest source-to-sink path
	LongestPath  int // nodes on the longest source-to-sink path
}

// ComputeStats derives the static characteristics of the graph.
func (g *Graph) ComputeStats() (Stats, error) {
	var s Stats
	for _, n := range g.Nodes {
		if n.Kind != NodeFilter {
			continue
		}
		s.Filters++
		if n.IsPeeking() {
			s.Peeking++
		}
		// File readers/writers (sources and sinks) keep a position counter
		// but are not mapped to cores in the paper's evaluation; they do
		// not count as stateful computation.
		if n.IsStateful() && !n.IsSource() && !n.IsSink() {
			s.Stateful++
		}
	}
	order, err := g.TopoOrder()
	if err != nil {
		return s, err
	}
	const inf = int(1e9)
	shortest := make([]int, len(g.Nodes))
	longest := make([]int, len(g.Nodes))
	for i := range shortest {
		shortest[i] = inf
		longest[i] = -inf
	}
	weight := func(n *Node) int {
		if n.Kind == NodeFilter {
			return 1
		}
		return 0 // splitters/joiners don't count as path filters
	}
	for _, n := range order {
		if n.IsSource() {
			shortest[n.ID] = weight(n)
			longest[n.ID] = weight(n)
		}
		for _, e := range n.Out {
			if e == nil || e.Back {
				continue
			}
			d := e.Dst
			if shortest[n.ID]+weight(d) < shortest[d.ID] {
				shortest[d.ID] = shortest[n.ID] + weight(d)
			}
			if longest[n.ID] != -inf && longest[n.ID]+weight(d) > longest[d.ID] {
				longest[d.ID] = longest[n.ID] + weight(d)
			}
		}
	}
	s.ShortestPath, s.LongestPath = inf, 0
	for _, n := range g.Sinks() {
		if shortest[n.ID] < s.ShortestPath {
			s.ShortestPath = shortest[n.ID]
		}
		if longest[n.ID] > s.LongestPath {
			s.LongestPath = longest[n.ID]
		}
	}
	if s.ShortestPath == inf {
		s.ShortestPath = 0
	}
	return s, nil
}

// KernelOf returns the kernel a filter node executes, or nil.
func (n *Node) KernelOf() *wfunc.Kernel {
	if n.Kind != NodeFilter || n.Filter == nil {
		return nil
	}
	return n.Filter.Kernel
}

// SendsMessages reports whether the node is an IL filter whose work
// function sends teleport messages. A native WorkFn replaces the IL body,
// so native filters never do.
func (n *Node) SendsMessages() bool {
	k := n.KernelOf()
	return k != nil && n.Filter.WorkFn == nil && wfunc.SendsMessages(k.Work)
}

// LockstepBlocker reports why the graph cannot run under a lockstep plan —
// one batch per edge per steady iteration — or "" when it can. Feedback
// loops interleave at firing granularity and teleport delivery windows are
// relative to live progress counters, so both need the sequential engine's
// firing order or a pipelined plan's single-worker stage clusters.
func (g *Graph) LockstepBlocker() string {
	for _, e := range g.Edges {
		if e.Back {
			return "feedback loop"
		}
	}
	if len(g.Portals) > 0 || len(g.Constraints) > 0 {
		return "teleport messaging"
	}
	for _, n := range g.Nodes {
		if n.SendsMessages() {
			return "message-sending filter " + n.Name
		}
	}
	return ""
}

// InEdge returns the node's first connected input edge (filters and
// splitters have exactly one), or nil.
func (n *Node) InEdge() *Edge {
	for _, e := range n.In {
		if e != nil {
			return e
		}
	}
	return nil
}

// OutEdge returns the node's first connected output edge (filters and
// joiners have exactly one), or nil.
func (n *Node) OutEdge() *Edge {
	for _, e := range n.Out {
		if e != nil {
			return e
		}
	}
	return nil
}
