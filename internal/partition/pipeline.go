package partition

import (
	"fmt"
	"sort"

	"streamit/internal/ir"
)

// StagePlan is the coarse-grained software-pipelining stage map of a
// flattened graph: a topological stage level per node plus the clusters
// of nodes that must fire together on one worker. Feedback cycles and
// teleport-messaging hulls form clusters — their latency coupling cannot
// tolerate pipeline skew — while everything else pipelines freely: a
// producer at level l runs iteration i+1 while its consumer at level l+1
// still works on iteration i.
type StagePlan struct {
	// Levels holds each node's stage level, indexed by node ID. Every
	// forward edge between different clusters strictly increases the
	// level; nodes of one cluster share theirs.
	Levels []int
	// NumLevels is max(Levels)+1.
	NumLevels int
	// Clusters lists the multi-node groups as sorted node IDs, ordered by
	// first member. Singleton nodes are not listed.
	Clusters [][]int
	// ClusterOf maps node ID to an index into Clusters, -1 for singletons.
	ClusterOf []int
}

// PipelineStages computes the software-pipelining stage map of a flat
// graph. Clusters are grown from two seeds and closed under convexity
// (any node on a forward path between two cluster members joins it, so
// contracting a cluster can never create a cycle):
//
//   - every feedback back edge s->d pulls in {s, d} and every node on a
//     forward path d ~> n ~> s — the loop body must interleave at firing
//     granularity, which only a single worker provides;
//   - all teleport-messaging endpoints (senders, portal receivers, and
//     MAX_LATENCY constraint endpoints) plus every node between any two
//     of them — sdep delivery windows are relative to live progress
//     counters, so the whole hull shares one stage.
//
// Levels are longest paths over the cluster contraction of the forward
// DAG. An error is returned only if contraction yields a cycle, which a
// convex closure cannot produce; the check guards future graph kinds.
func PipelineStages(g *ir.Graph) (*StagePlan, error) {
	n := len(g.Nodes)
	fwd := make([][]int, n)
	rev := make([][]int, n)
	for _, e := range g.Edges {
		if e.Back {
			continue
		}
		fwd[e.Src.ID] = append(fwd[e.Src.ID], e.Dst.ID)
		rev[e.Dst.ID] = append(rev[e.Dst.ID], e.Src.ID)
	}
	reach := func(adj [][]int, from []int) []bool {
		seen := make([]bool, n)
		stack := append([]int(nil), from...)
		for _, v := range from {
			seen[v] = true
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		return seen
	}

	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	merged := false
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
			merged = true
		}
	}

	// Feedback clusters: the back edge's endpoints and the loop body
	// between them.
	for _, e := range g.Edges {
		if !e.Back {
			continue
		}
		s, d := e.Src.ID, e.Dst.ID
		union(s, d)
		down, up := reach(fwd, []int{d}), reach(rev, []int{s})
		for v := 0; v < n; v++ {
			if down[v] && up[v] {
				union(v, d)
			}
		}
	}

	// Messaging hull: all endpoints and everything between two of them.
	var seeds []int
	for _, nd := range g.Nodes {
		if nd.SendsMessages() {
			seeds = append(seeds, nd.ID)
		}
	}
	endpoint := func(f *ir.Filter) {
		if nd := g.FilterNode[f]; nd != nil {
			seeds = append(seeds, nd.ID)
		}
	}
	for _, p := range g.Portals {
		for _, r := range p.Receivers {
			endpoint(r)
		}
	}
	for _, c := range g.Constraints {
		endpoint(c.Upstream)
		endpoint(c.Downstream)
	}
	if len(seeds) > 0 {
		from, to := reach(fwd, seeds), reach(rev, seeds)
		for v := 0; v < n; v++ {
			if from[v] && to[v] {
				union(v, seeds[0])
			}
		}
	}

	// Convex closure: merged clusters may not be convex, so pull in any
	// node lying on a forward path between two members until stable.
	for changed := merged; changed; {
		changed = false
		groups := map[int][]int{}
		for v := 0; v < n; v++ {
			r := find(v)
			groups[r] = append(groups[r], v)
		}
		for r, members := range groups {
			if len(members) < 2 {
				continue
			}
			down, up := reach(fwd, members), reach(rev, members)
			for v := 0; v < n; v++ {
				if down[v] && up[v] && find(v) != r {
					union(v, r)
					changed = true
				}
			}
		}
	}

	// Longest-path levels over the cluster contraction.
	comp := make([]int, n)
	compID := map[int]int{}
	for v := 0; v < n; v++ {
		r := find(v)
		if _, ok := compID[r]; !ok {
			compID[r] = len(compID)
		}
		comp[v] = compID[r]
	}
	m := len(compID)
	sadj := make([]map[int]bool, m)
	indeg := make([]int, m)
	for _, e := range g.Edges {
		if e.Back {
			continue
		}
		a, b := comp[e.Src.ID], comp[e.Dst.ID]
		if a == b {
			continue
		}
		if sadj[a] == nil {
			sadj[a] = map[int]bool{}
		}
		if !sadj[a][b] {
			sadj[a][b] = true
			indeg[b]++
		}
	}
	level := make([]int, m)
	var queue []int
	for c := 0; c < m; c++ {
		if indeg[c] == 0 {
			queue = append(queue, c)
		}
	}
	done := 0
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		done++
		for d := range sadj[c] {
			if level[c]+1 > level[d] {
				level[d] = level[c] + 1
			}
			if indeg[d]--; indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if done != m {
		return nil, fmt.Errorf("partition: stage contraction of %s left a cycle (%d of %d components ordered)", g.Name, done, m)
	}

	sp := &StagePlan{Levels: make([]int, n), ClusterOf: make([]int, n)}
	for v := 0; v < n; v++ {
		sp.Levels[v] = level[comp[v]]
		if sp.Levels[v]+1 > sp.NumLevels {
			sp.NumLevels = sp.Levels[v] + 1
		}
		sp.ClusterOf[v] = -1
	}
	byRoot := map[int][]int{}
	for v := 0; v < n; v++ {
		r := find(v)
		byRoot[r] = append(byRoot[r], v)
	}
	for _, members := range byRoot {
		if len(members) >= 2 {
			sort.Ints(members)
			sp.Clusters = append(sp.Clusters, members)
		}
	}
	sort.Slice(sp.Clusters, func(i, j int) bool { return sp.Clusters[i][0] < sp.Clusters[j][0] })
	for ci, members := range sp.Clusters {
		for _, v := range members {
			sp.ClusterOf[v] = ci
		}
	}
	return sp, nil
}
