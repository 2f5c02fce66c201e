package ir

import (
	"fmt"

	"streamit/internal/wfunc"
)

// NodeKind distinguishes flat-graph node types.
type NodeKind int

// Flat node kinds: filters execute kernels; splitters and joiners are the
// compiler-defined data routers of split-joins and feedback loops.
const (
	NodeFilter NodeKind = iota
	NodeSplitter
	NodeJoiner
)

func (k NodeKind) String() string {
	switch k {
	case NodeFilter:
		return "filter"
	case NodeSplitter:
		return "splitter"
	case NodeJoiner:
		return "joiner"
	}
	return "node?"
}

// Node is a vertex of the flattened stream graph.
type Node struct {
	ID   int
	Kind NodeKind
	Name string

	Filter *Filter // when Kind == NodeFilter
	SJ     SJSpec  // when Kind is NodeSplitter or NodeJoiner

	In  []*Edge // input edges in port order
	Out []*Edge // output edges in port order
}

// Edge is a data channel between two flat nodes.
type Edge struct {
	ID      int
	Src     *Node
	SrcPort int
	Dst     *Node
	DstPort int
	Type    string
	Initial []float64 // items pre-loaded on the channel (feedback delay)
	Back    bool      // closes a feedback cycle
}

func (e *Edge) String() string {
	return fmt.Sprintf("%s->%s", e.Src.Name, e.Dst.Name)
}

// Graph is the flattened stream graph.
type Graph struct {
	Name        string
	Nodes       []*Node
	Edges       []*Edge
	FilterNode  map[*Filter]*Node
	Portals     []*Portal
	Constraints []LatencyConstraint
}

// PopPort returns the items consumed per firing from input port p.
func (n *Node) PopPort(p int) int {
	switch n.Kind {
	case NodeFilter:
		return n.Filter.Kernel.Pop
	case NodeSplitter:
		if n.SJ.Kind == SJDuplicate {
			return 1
		}
		return sum(n.SJ.Weights)
	case NodeJoiner:
		return n.SJ.Weights[p]
	}
	return 0
}

// PeekPort returns the items that must be present on input port p to fire.
func (n *Node) PeekPort(p int) int {
	if n.Kind == NodeFilter {
		return n.Filter.Kernel.Peek
	}
	return n.PopPort(p)
}

// PushPort returns the items produced per firing on output port p.
func (n *Node) PushPort(p int) int {
	switch n.Kind {
	case NodeFilter:
		return n.Filter.Kernel.Push
	case NodeSplitter:
		if n.SJ.Kind == SJDuplicate {
			return 1
		}
		return n.SJ.Weights[p]
	case NodeJoiner:
		return sum(n.SJ.Weights)
	}
	return 0
}

// TotalPop returns the items consumed per firing across all input ports,
// based on declared rates (independent of whether edges are connected yet).
func (n *Node) TotalPop() int {
	switch n.Kind {
	case NodeFilter:
		return n.Filter.Kernel.Pop
	case NodeSplitter:
		if n.SJ.Kind == SJDuplicate {
			return 1
		}
		return sum(n.SJ.Weights)
	case NodeJoiner:
		return sum(n.SJ.Weights)
	}
	return 0
}

// TotalPush returns the items produced per firing across all output ports,
// based on declared rates.
func (n *Node) TotalPush() int {
	switch n.Kind {
	case NodeFilter:
		return n.Filter.Kernel.Push
	case NodeSplitter:
		if n.SJ.Kind == SJDuplicate {
			return len(n.Out)
		}
		return sum(n.SJ.Weights)
	case NodeJoiner:
		return sum(n.SJ.Weights)
	}
	return 0
}

// IsSource reports whether the node consumes no input.
func (n *Node) IsSource() bool { return len(n.In) == 0 }

// IsSink reports whether the node produces no output.
func (n *Node) IsSink() bool { return len(n.Out) == 0 }

// IsStateful reports whether the node carries mutable state across firings
// (its work function writes fields, or it has message handlers that do).
func (n *Node) IsStateful() bool {
	if n.Kind != NodeFilter {
		return false
	}
	k := n.Filter.Kernel
	if wfunc.WritesFields(k.Work) {
		return true
	}
	for _, h := range k.Handlers {
		if wfunc.WritesFields(h) {
			return true
		}
	}
	return false
}

// IsPeeking reports whether the node inspects more items than it consumes.
func (n *Node) IsPeeking() bool {
	return n.Kind == NodeFilter && n.Filter.Kernel.Peek > n.Filter.Kernel.Pop
}

func sum(w []int) int {
	t := 0
	for _, v := range w {
		t += v
	}
	return t
}

// flattener carries state through the recursive flattening.
type flattener struct {
	g    *Graph
	seen map[Stream]bool
}

// Flatten converts a program's hierarchical stream into the flat node/edge
// graph, performing the appendix's structural semantic checks along the
// way: connection type matching, single appearance of each stream,
// round-robin weight arity, feedback-loop port requirements, and
// zero-weight rules for source/sink branches of split-joins.
func Flatten(p *Program) (*Graph, error) {
	f := &flattener{
		g: &Graph{
			Name:        p.Name,
			FilterNode:  map[*Filter]*Node{},
			Portals:     p.Portals,
			Constraints: p.Constraints,
		},
		seen: map[Stream]bool{},
	}
	entry, exit, err := f.flatten(p.Top)
	if err != nil {
		return nil, err
	}
	if entry != nil && entry.TotalPop() > 0 {
		return nil, fmt.Errorf("top-level stream %s consumes external input; provide a source filter", p.Top.StreamName())
	}
	if exit != nil && exit.TotalPush() > 0 {
		return nil, fmt.Errorf("top-level stream %s produces unconsumed output; provide a sink filter", p.Top.StreamName())
	}
	for _, pt := range p.Portals {
		for _, r := range pt.Receivers {
			if f.g.FilterNode[r] == nil {
				return nil, fmt.Errorf("portal %s receiver %s is not in the stream graph", pt.Name, r.Kernel.Name)
			}
		}
	}
	return f.g, nil
}

func (f *flattener) node(kind NodeKind, name string) *Node {
	n := &Node{ID: len(f.g.Nodes), Kind: kind, Name: fmt.Sprintf("%s#%d", name, len(f.g.Nodes))}
	f.g.Nodes = append(f.g.Nodes, n)
	return n
}

func (f *flattener) connect(src *Node, srcPort int, dst *Node, dstPort int, typ string) *Edge {
	e := &Edge{ID: len(f.g.Edges), Src: src, SrcPort: srcPort, Dst: dst, DstPort: dstPort, Type: typ}
	f.g.Edges = append(f.g.Edges, e)
	for len(src.Out) <= srcPort {
		src.Out = append(src.Out, nil)
	}
	src.Out[srcPort] = e
	for len(dst.In) <= dstPort {
		dst.In = append(dst.In, nil)
	}
	dst.In[dstPort] = e
	return e
}

// flatten returns the entry node (which receives the stream's input; nil if
// the stream consumes nothing) and exit node (which produces the stream's
// output; nil if it produces nothing).
func (f *flattener) flatten(s Stream) (entry, exit *Node, err error) {
	if f.seen[s] {
		return nil, nil, fmt.Errorf("stream %s appears more than once in the graph", s.StreamName())
	}
	f.seen[s] = true

	switch s := s.(type) {
	case *Filter:
		n := f.node(NodeFilter, s.Kernel.Name)
		n.Filter = s
		f.g.FilterNode[s] = n
		entry, exit = n, n
		// Dynamic-rate kernels declare hints, not rates; their connectivity
		// is determined by the declared types alone.
		if s.In == TypeVoid || (!s.Kernel.Dynamic && s.Kernel.Pop == 0 && s.Kernel.Peek == 0) {
			entry = nil
		}
		if s.Out == TypeVoid || (!s.Kernel.Dynamic && s.Kernel.Push == 0) {
			exit = nil
		}
		return entry, exit, nil

	case *Pipeline:
		if len(s.Children) == 0 {
			return nil, nil, fmt.Errorf("pipeline %s has no children", s.Name)
		}
		var prev *Node
		var prevType string
		for i, c := range s.Children {
			cEntry, cExit, err := f.flatten(c)
			if err != nil {
				return nil, nil, err
			}
			if i == 0 {
				entry = cEntry
			} else {
				switch {
				case prev != nil && cEntry != nil:
					it := InType(c)
					if prevType != it {
						return nil, nil, fmt.Errorf("pipeline %s: cannot connect %s output (%s) to %s input (%s)",
							s.Name, s.Children[i-1].StreamName(), prevType, c.StreamName(), it)
					}
					f.connect(prev, portOf(prev, true), cEntry, portOf(cEntry, false), it)
				case prev == nil && cEntry != nil:
					return nil, nil, fmt.Errorf("pipeline %s: %s needs input but %s produces none",
						s.Name, c.StreamName(), s.Children[i-1].StreamName())
				case prev != nil && cEntry == nil:
					return nil, nil, fmt.Errorf("pipeline %s: %s produces output but %s consumes none",
						s.Name, s.Children[i-1].StreamName(), c.StreamName())
				}
			}
			prev, prevType = cExit, OutType(c)
		}
		return entry, prev, nil

	case *SplitJoin:
		return f.flattenSplitJoin(s)

	case *FeedbackLoop:
		return f.flattenFeedback(s)
	}
	return nil, nil, fmt.Errorf("unknown stream type %T", s)
}

// portOf returns the free port index for connecting to node n. Splitters
// allocate output ports in order and joiners input ports in order, filling
// the first unconnected (nil) slot first — feedback loops pre-connect port
// 1 and leave port 0 for the external stream. Filters always use port 0.
func portOf(n *Node, out bool) int {
	if out {
		if n.Kind == NodeSplitter {
			for i, e := range n.Out {
				if e == nil {
					return i
				}
			}
			return len(n.Out)
		}
		return 0
	}
	if n.Kind == NodeJoiner {
		for i, e := range n.In {
			if e == nil {
				return i
			}
		}
		return len(n.In)
	}
	return 0
}

func normalizeWeights(spec SJSpec, nChildren int, what, name string) (SJSpec, error) {
	if spec.Kind == SJRoundRobin {
		if len(spec.Weights) == 0 {
			spec.Weights = make([]int, nChildren)
			for i := range spec.Weights {
				spec.Weights[i] = 1
			}
		}
		// roundrobin(w) with one weight broadcasts w to every child, as in
		// StreamIt.
		if len(spec.Weights) == 1 && nChildren > 1 {
			w := spec.Weights[0]
			spec.Weights = make([]int, nChildren)
			for i := range spec.Weights {
				spec.Weights[i] = w
			}
		}
		if len(spec.Weights) != nChildren {
			return spec, fmt.Errorf("%s %s: %d weights for %d children", what, name, len(spec.Weights), nChildren)
		}
		for _, w := range spec.Weights {
			if w < 0 {
				return spec, fmt.Errorf("%s %s: negative weight", what, name)
			}
		}
		if sum(spec.Weights) == 0 {
			return spec, fmt.Errorf("%s %s: all weights are zero", what, name)
		}
	}
	return spec, nil
}

func (f *flattener) flattenSplitJoin(s *SplitJoin) (entry, exit *Node, err error) {
	if len(s.Children) == 0 {
		return nil, nil, fmt.Errorf("splitjoin %s has no children", s.Name)
	}
	if s.Join.Kind == SJDuplicate {
		return nil, nil, fmt.Errorf("splitjoin %s: duplicate joiner is not executable; use a round-robin joiner", s.Name)
	}
	split, err := normalizeWeights(s.Split, len(s.Children), "splitter of", s.Name)
	if err != nil {
		return nil, nil, err
	}
	join, err := normalizeWeights(s.Join, len(s.Children), "joiner of", s.Name)
	if err != nil {
		return nil, nil, err
	}

	var sp, jn *Node
	if split.Kind != SJNull {
		sp = f.node(NodeSplitter, s.Name+".split")
		sp.SJ = split
	}
	if join.Kind != SJNull {
		jn = f.node(NodeJoiner, s.Name+".join")
		jn.SJ = join
	}

	for i, c := range s.Children {
		cEntry, cExit, err := f.flatten(c)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case sp != nil && cEntry != nil:
			w := 1
			if split.Kind == SJRoundRobin {
				w = split.Weights[i]
			}
			if w == 0 {
				// Appendix restriction 6: zero-weight branches must consume
				// nothing; here the branch wants input.
				return nil, nil, fmt.Errorf("splitjoin %s: branch %d consumes input but splitter weight is 0", s.Name, i)
			}
			f.connect(sp, i, cEntry, portOf(cEntry, false), InType(c))
		case sp != nil && cEntry == nil:
			if split.Kind == SJRoundRobin && split.Weights[i] != 0 {
				return nil, nil, fmt.Errorf("splitjoin %s: branch %d consumes no input; splitter weight must be 0", s.Name, i)
			}
			if split.Kind == SJDuplicate {
				return nil, nil, fmt.Errorf("splitjoin %s: branch %d consumes no input under a duplicate splitter", s.Name, i)
			}
			// Zero-weight round-robin branch: no edge.
			f.padPort(sp, i)
		case sp == nil && cEntry != nil:
			return nil, nil, fmt.Errorf("splitjoin %s: branch %d consumes input but splitter is null", s.Name, i)
		}
		switch {
		case jn != nil && cExit != nil:
			w := 1
			if join.Kind == SJRoundRobin {
				w = join.Weights[i]
			}
			if w == 0 {
				return nil, nil, fmt.Errorf("splitjoin %s: branch %d produces output but joiner weight is 0", s.Name, i)
			}
			f.connect(cExit, portOf(cExit, true), jn, i, OutType(c))
		case jn != nil && cExit == nil:
			if join.Kind == SJRoundRobin && join.Weights[i] != 0 {
				return nil, nil, fmt.Errorf("splitjoin %s: branch %d produces no output; joiner weight must be 0", s.Name, i)
			}
			f.padInPort(jn, i)
		case jn == nil && cExit != nil:
			return nil, nil, fmt.Errorf("splitjoin %s: branch %d produces output but joiner is null", s.Name, i)
		}
	}
	f.pruneZeroPorts(sp, jn)
	return sp, jn, nil
}

// padPort/padInPort reserve a port position for zero-weight branches so
// weight indices stay aligned with port indices during construction.
func (f *flattener) padPort(n *Node, p int) {
	for len(n.Out) <= p {
		n.Out = append(n.Out, nil)
	}
}

func (f *flattener) padInPort(n *Node, p int) {
	for len(n.In) <= p {
		n.In = append(n.In, nil)
	}
}

// pruneZeroPorts removes nil (zero-weight) ports and their weights so that
// downstream consumers see dense port lists.
func (f *flattener) pruneZeroPorts(sp, jn *Node) {
	compact := func(edges []*Edge, n *Node, isOut bool) []*Edge {
		var out []*Edge
		var w []int
		for i, e := range edges {
			if e == nil {
				continue
			}
			if isOut {
				e.SrcPort = len(out)
			} else {
				e.DstPort = len(out)
			}
			out = append(out, e)
			if n.SJ.Kind == SJRoundRobin {
				w = append(w, n.SJ.Weights[i])
			}
		}
		if n.SJ.Kind == SJRoundRobin {
			n.SJ.Weights = w
		}
		return out
	}
	if sp != nil {
		sp.Out = compact(sp.Out, sp, true)
	}
	if jn != nil {
		jn.In = compact(jn.In, jn, false)
	}
}

func (f *flattener) flattenFeedback(s *FeedbackLoop) (entry, exit *Node, err error) {
	// Appendix restriction 8: the loop's splitter and joiner must be
	// non-null with exactly two ports.
	if s.Join.Kind == SJNull || s.Split.Kind == SJNull {
		return nil, nil, fmt.Errorf("feedbackloop %s: splitter and joiner must be non-null", s.Name)
	}
	if s.Body == nil {
		return nil, nil, fmt.Errorf("feedbackloop %s: missing body", s.Name)
	}
	join, err := normalizeWeights(s.Join, 2, "joiner of", s.Name)
	if err != nil {
		return nil, nil, err
	}
	split, err := normalizeWeights(s.Split, 2, "splitter of", s.Name)
	if err != nil {
		return nil, nil, err
	}
	if s.Join.Kind == SJDuplicate {
		return nil, nil, fmt.Errorf("feedbackloop %s: duplicate joiner is not executable", s.Name)
	}

	jn := f.node(NodeJoiner, s.Name+".join")
	jn.SJ = join
	sp := f.node(NodeSplitter, s.Name+".split")
	sp.SJ = split

	bEntry, bExit, err := f.flatten(s.Body)
	if err != nil {
		return nil, nil, err
	}
	if bEntry == nil || bExit == nil {
		return nil, nil, fmt.Errorf("feedbackloop %s: body must consume and produce items", s.Name)
	}
	bodyType := InType(s.Body)
	f.connect(jn, 0, bEntry, portOf(bEntry, false), bodyType)
	f.connect(bExit, portOf(bExit, true), sp, 0, OutType(s.Body))

	// Feedback path: splitter port 1 -> (loop stream) -> joiner port 1.
	var loopEdge *Edge
	if s.Loop != nil {
		lEntry, lExit, err := f.flatten(s.Loop)
		if err != nil {
			return nil, nil, err
		}
		if lEntry == nil || lExit == nil {
			return nil, nil, fmt.Errorf("feedbackloop %s: loop stream must consume and produce items", s.Name)
		}
		f.connect(sp, 1, lEntry, portOf(lEntry, false), InType(s.Loop))
		loopEdge = f.connect(lExit, portOf(lExit, true), jn, 1, OutType(s.Loop))
	} else {
		loopEdge = f.connect(sp, 1, jn, 1, OutType(s.Body))
	}
	loopEdge.Back = true
	if s.Delay > 0 {
		init := make([]float64, s.Delay)
		if s.InitPath != nil {
			for i := range init {
				init[i] = s.InitPath(i)
			}
		}
		loopEdge.Initial = init
	}
	// The loop's external input joins at port 0; external output leaves the
	// splitter at port 0. Entry is nil when the joiner draws nothing from
	// outside (weight 0 is rejected above, so entry is always the joiner).
	return jn, sp, nil
}

// InType returns the item type a stream consumes (TypeVoid if none).
func InType(s Stream) string {
	switch s := s.(type) {
	case *Filter:
		return s.In
	case *Pipeline:
		if len(s.Children) == 0 {
			return TypeVoid
		}
		return InType(s.Children[0])
	case *SplitJoin:
		if s.Split.Kind == SJNull {
			return TypeVoid
		}
		for _, c := range s.Children {
			if t := InType(c); t != TypeVoid {
				return t
			}
		}
		return TypeVoid
	case *FeedbackLoop:
		return InType(s.Body)
	}
	return TypeVoid
}

// OutType returns the item type a stream produces (TypeVoid if none).
func OutType(s Stream) string {
	switch s := s.(type) {
	case *Filter:
		return s.Out
	case *Pipeline:
		if len(s.Children) == 0 {
			return TypeVoid
		}
		return OutType(s.Children[len(s.Children)-1])
	case *SplitJoin:
		if s.Join.Kind == SJNull {
			return TypeVoid
		}
		for _, c := range s.Children {
			if t := OutType(c); t != TypeVoid {
				return t
			}
		}
		return TypeVoid
	case *FeedbackLoop:
		return OutType(s.Body)
	}
	return TypeVoid
}
